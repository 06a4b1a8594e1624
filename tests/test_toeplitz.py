import logging

import numpy as np
import pytest

import matspec.toeplitz

from matspec import (
    Classification,
    HermSeq,
    ar_spectrum,
    ball_params,
    caratheodory_check,
    central_measure,
    central_quotient,
    classify,
    central_extend,
    first_violation,
    gamma_from_covariance,
    toeplitz_matrix,
)
from matspec.errors import DimensionError, InvalidInputError, ModelError
from matspec.linalg import DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL, re_mat, spec_norm
from matspec.toeplitz import (
    _cholesky_clears,
    _continue,
    _enter,
    _first_violation_certified,
    _head,
    _predictor,
    _re_toeplitz,
    _rank,
    _recur,
    _scan,
    _schur_rank,
    _svd_fit,
    _unit_scaled,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (
    atomic_coeffs,
    direct_sum,
    random_psd,
    random_tpd_seq,
    random_unitary,
    trig_coeffs,
    var1_coeffs,
)
from _oracle import (
    ball_membership,
    conjugate_by_unitary,
    enter_by_scan,
    pinv,
    prefix_scan,
    psd_sqrt,
    rank_drop,
)

RNG = np.random.default_rng(11)
# parametrised inputs draw from their own stream, leaving RNG untouched
CASE_RNG = np.random.default_rng(12)


def ones_seq(count):
    return HermSeq([np.ones((1, 1))] * count)


class TestHermSeq:
    def test_negative_index_is_adjoint(self):
        c1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        seq = HermSeq([np.eye(2), c1])
        assert np.allclose(seq.coeff(-1), c1.conj().T)

    def test_prefix_and_append(self):
        seq = ones_seq(3)
        assert len(seq.prefix(2)) == 2
        grown = seq.prefix(2).append(np.ones((1, 1)))
        assert np.allclose(grown.coeff(2), 1.0)

    def test_rejects_mixed_sizes(self):
        with pytest.raises(DimensionError):
            HermSeq([np.eye(2), np.eye(3)])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            HermSeq([])

    def test_coeffs_read_only(self):
        seq = ones_seq(2)
        with pytest.raises(ValueError):
            seq.coeff(0)[0, 0] = 5.0

    def test_stacked_input_is_copied_read_only(self):
        # one validated copy of a stacked input; its coefficients are views
        # into it that cannot be made writeable again
        c = np.stack([np.eye(2), 0.5 * np.eye(2)]).astype(complex)
        seq = HermSeq(c)
        c[0, 0, 0] = 9.0
        assert seq.coeff(0)[0, 0] == 1.0
        for coeff in seq:
            assert not coeff.flags.writeable
            with pytest.raises(ValueError):
                coeff.flags.writeable = True
        assert HermSeq(iter(list(c))).q == 2

    NAN = np.array([[1.0, np.nan], [0.0, 1.0]])
    INF = np.array([[np.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("coeffs, error, message", [
        ([], InvalidInputError, "a sequence needs at least one coefficient"),
        (iter([]), InvalidInputError, "a sequence needs at least one coefficient"),
        ([[1.0, 2.0], [3.0]], DimensionError, "expected a 2-d matrix, got shape (2,)"),
        ([np.eye(2), np.eye(3)], DimensionError,
         "coefficient 1 has shape (3, 3), expected (2, 2)"),
        ([np.ones((2, 3))], DimensionError, "coefficient 0 has shape (2, 3), expected (2, 2)"),
        ([np.eye(2), np.ones((2, 3))], DimensionError,
         "coefficient 1 has shape (2, 3), expected (2, 2)"),
        ([1.0, 0.5], DimensionError, "expected a 2-d matrix, got shape ()"),
        ([[1.0, 0.5]], DimensionError, "expected a 2-d matrix, got shape (2,)"),
        (np.ones((2, 2)), DimensionError, "expected a 2-d matrix, got shape (2,)"),
        (np.ones((2, 2, 2, 2)), DimensionError, "expected a 2-d matrix, got shape (2, 2, 2)"),
        ([np.zeros((0, 0))], DimensionError, "expected a 2-d matrix, got shape (0, 0)"),
        (5, TypeError, "'int' object is not iterable"),
        ([NAN, np.eye(2), np.eye(2)], InvalidInputError, "matrix has non-finite entries"),
        ([np.eye(2), NAN, np.eye(2)], InvalidInputError, "matrix has non-finite entries"),
        ([np.eye(2), np.eye(2), INF], InvalidInputError, "matrix has non-finite entries"),
        # the first bad coefficient in index order decides the error
        ([np.eye(2), NAN, np.ones((2, 3))], InvalidInputError, "matrix has non-finite entries"),
        ([np.eye(2), np.ones(2), NAN], DimensionError, "expected a 2-d matrix, got shape (2,)"),
    ], ids=["empty", "empty-iterator", "ragged", "mixed-sizes", "non-square",
            "non-square-later", "scalars", "one-row", "one-matrix", "four-d",
            "empty-matrix", "scalar", "nan-0", "nan-1", "inf-2", "nan-before-shape",
            "shape-before-nan"])
    def test_errors_name_the_first_bad_coefficient(self, coeffs, error, message):
        with pytest.raises(error) as exc:
            HermSeq(coeffs)
        assert type(exc.value) is error and str(exc.value) == message


class TestInputChecks:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 2.0], ids=["nan", "inf", "-1", "2"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda seq, tol: first_violation(seq, tol),
            lambda seq, tol: classify(seq, tol),
            lambda seq, tol: central_extend(seq, 4, psd_tol=tol),
            lambda seq, tol: central_measure(seq, psd_tol=tol),
            lambda seq, tol: ar_spectrum(seq, 1, psd_tol=tol),
            lambda seq, tol: caratheodory_check(gamma_from_covariance(seq), tol),
            lambda seq, tol: central_quotient(gamma_from_covariance(seq), psd_tol=tol),
        ],
        ids=["first_violation", "classify", "central_extend", "central_measure",
             "ar_spectrum", "caratheodory_check", "central_quotient"],
    )
    def test_psd_tol_outside_0_1_is_refused(self, call, tol):
        # C = [1, 2] is not TND; a NaN, infinite or out-of-range psd_tol
        # must not pass it as TND or fail it at T_0
        seq = HermSeq([np.array([[1.0]]), np.array([[2.0]])])
        with pytest.raises(InvalidInputError, match=r"psd_tol .* must lie in \[0, 1\)"):
            call(seq, tol)

    @pytest.mark.parametrize(
        "call",
        [
            lambda seq: seq.prefix(0),
            lambda seq: seq.prefix(4),
            lambda seq: toeplitz_matrix(seq, -1),
            lambda seq: toeplitz_matrix(seq, 3),
        ],
        ids=["prefix-0", "prefix-4", "order-(-1)", "order-3"],
    )
    def test_index_outside_the_stored_range_raises(self, call):
        with pytest.raises(IndexError, match="outside"):
            call(ones_seq(3))

    @pytest.mark.parametrize("cls", [matspec.toeplitz.MatrixSeq, HermSeq])
    @pytest.mark.parametrize("name", ["q", "coeffs", "extra"])
    def test_sequence_refuses_assignment(self, cls, name):
        seq = cls(ones_seq(3).coeffs)
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(seq, name, None)
        assert seq.q == 1 and len(seq) == 3


class TestToeplitzMatrix:
    def test_scalar_ones_structure(self):
        t = toeplitz_matrix(ones_seq(3), 2)
        assert np.allclose(t, np.ones((3, 3)))

    def test_block_placement(self):
        c0 = np.eye(2)
        c1 = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        t = toeplitz_matrix(HermSeq([c0, c1]), 1)
        assert t.shape == (4, 4)
        assert np.allclose(t[2:, :2], c1)
        assert np.allclose(t[:2, 2:], c1.conj().T)

    def test_hermitian_exactly(self):
        seq = random_tpd_seq(RNG, 2, 3)
        t = toeplitz_matrix(seq, 3)
        assert np.array_equal(t, t.conj().T)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_real_part_is_re_mat_bit_for_bit(self, q):
        # T_n is Hermitian off its diagonal blocks, so re T_n is T_n with
        # the real part of C_0 on them: bit for bit re_mat(T_n), also for
        # a C_0 whose skew part lies within psd_tol, which the scan
        # accepts, and it is the re T_n the scan's head returns
        rng = np.random.default_rng(40 + q)
        for n in (0, 1, 3, 6):
            coeffs = list(random_tpd_seq(rng, q, n).coeffs)
            a = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            skew = a - a.conj().T
            coeffs[0] = coeffs[0] + 0.25 * DEFAULT_PSD_TOL * skew / spec_norm(skew)
            t = toeplitz_matrix(HermSeq(coeffs), n)
            assert not np.array_equal(t[:q, :q], t[:q, :q].conj().T)
            want = re_mat(t).tobytes()
            assert _re_toeplitz(t, q).tobytes() == want
            assert _head(t, q, DEFAULT_PSD_TOL)[1].tobytes() == want


def recur_by_terms(x, taps, start):
    """X_k += X_{k-d} A_1 + ... + X_{k-1} A_d for k >= ``start``, one
    product at a time: the definition `toeplitz._recur` batches."""
    out = x.copy()
    d = len(taps)
    for k in range(start, len(x)):
        for i in range(d):
            out[k] = out[k] + out[k - d + i] @ taps[i]
    return out


class TestRecurrence:
    # `_recur` on the block stack, where the old (q, L q) row read strided
    # column slices (q > 1): the extension's recursion from a stored
    # prefix (start = d, or start > d when the prefix is longer than the
    # predictor) and the Taylor side, where every block carries a forcing
    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("d, start", [(1, 1), (3, 3), (3, 7), (0, 2)])
    @pytest.mark.parametrize("forced", [False, True])
    def test_stack_kernel_is_the_per_term_sum(self, q, d, start, forced):
        rng = np.random.default_rng(100 * q + 10 * d + start)

        def draw(*shape):
            return rng.standard_normal(shape + (q, q)) + 1j * rng.standard_normal(shape + (q, q))

        x = np.zeros((start + 12, q, q), dtype=complex)
        x[:start] = draw(start)
        if forced:
            x[start:] = draw(len(x) - start)
        taps = draw(d) / (2.0 * max(d, 1) * q)  # a contraction: no growth
        before = x.tobytes()
        got = _recur(x, taps, start)
        want = recur_by_terms(x, taps, start)
        assert x.tobytes() == before
        assert got.shape == x.shape and got[:start].tobytes() == x[:start].tobytes()
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestBundle:
    """The blocks the predictor, the ball and the quotient read are slices of
    T_n: T_{n-1} = T_n[:-q, :-q], Y_n = T_n[q:, :q], Z_n = T_n[-q:, :-q]."""

    def test_shapes(self):
        seq = random_tpd_seq(RNG, 2, 2)
        t = toeplitz_matrix(seq, 2)
        assert t.shape == (6, 6)
        assert t[2:, :2].shape == (4, 2)
        assert t[-2:, :-2].shape == (2, 4)
        assert t[:-2, :-2].shape == (4, 4)

    def test_col_and_row_stacks(self):
        seq = random_tpd_seq(RNG, 2, 2)
        t = toeplitz_matrix(seq, 2)
        col, row = t[2:, :2], t[-2:, :-2]
        assert np.allclose(col[:2], seq.coeff(1))
        assert np.allclose(col[2:], seq.coeff(2))
        assert np.allclose(row[:, :2], seq.coeff(2))
        assert np.allclose(row[:, 2:], seq.coeff(1))
        assert np.array_equal(t[:-2, :-2], toeplitz_matrix(seq, 1))

    def test_causal_is_lower_triangular_doubling(self):
        seq = random_tpd_seq(RNG, 1, 2)
        expect = np.array(
            [
                [seq.coeff(0)[0, 0], 0, 0],
                [2 * seq.coeff(1)[0, 0], seq.coeff(0)[0, 0], 0],
                [2 * seq.coeff(2)[0, 0], 2 * seq.coeff(1)[0, 0], seq.coeff(0)[0, 0]],
            ]
        )
        # S_n: twice the strictly lower part of T_n, Gamma_0 = C_0 on the diagonal
        t = toeplitz_matrix(seq, 2)
        assert np.allclose(2.0 * np.tril(t, -1) + seq.coeff(0)[0, 0] * np.eye(3), expect)
        # the quotient's numerator is S_{n-1}* w with w = -den_1..n
        cq = central_quotient(gamma_from_covariance(seq))
        w = _predictor(t, 1, DEFAULT_RANK_RTOL, True)[0][:, 0, 0]  # TPD: full rank
        assert np.allclose(-cq.den.coeffs[1:, 0, 0], w)
        assert np.allclose(cq.num.coeffs[1:, 0, 0], expect[:2, :2].conj().T @ w)

    def test_order_zero(self):
        t = toeplitz_matrix(ones_seq(1), 0)
        assert t.shape == (1, 1)
        assert t[1:, :1].shape == (0, 1)


class TestFirstViolationClassify:
    def test_tnd_has_no_violation(self):
        assert first_violation(ones_seq(3)) is None

    def test_violation_index_is_smallest(self):
        assert first_violation(HermSeq([np.array([[1.0]]), np.array([[2.0]])])) == 1
        assert first_violation(HermSeq([np.array([[-1.0]])])) == 0

    def test_classify_ones_is_tnd_not_tpd(self):
        assert classify(ones_seq(2)) is Classification.TND

    def test_classify_strict(self):
        seq = HermSeq([np.array([[1.0]]), np.array([[0.3]])])
        assert classify(seq) is Classification.TPD

    def test_classify_not_tnd(self):
        seq = HermSeq([np.array([[1.0]]), np.array([[2.0]])])
        assert classify(seq) is Classification.NOT_TND

    def test_random_tpd_classifies_tpd(self):
        for q in (1, 2, 3):
            assert classify(random_tpd_seq(RNG, q, 3)) is Classification.TPD

    def test_atomic_is_tnd(self):
        coeffs, _ = atomic_coeffs(RNG, 2, 4, n_atoms=2)
        assert classify(HermSeq(coeffs)) is not Classification.NOT_TND

    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_non_hermitian_head_fails_at_zero(self, length):
        c0 = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
        seq = HermSeq([c0] + [0.1 * np.eye(2)] * (length - 1))
        assert first_violation(seq) == 0
        assert classify(seq) is Classification.NOT_TND

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            (random_tpd_seq(CASE_RNG, 3, 5).coeffs, None),
            (atomic_coeffs(CASE_RNG, 2, 6, n_atoms=2)[0], None),
            (direct_sum(atomic_coeffs(CASE_RNG, 1, 5, n_atoms=1)[0],
                        random_tpd_seq(CASE_RNG, 1, 4).coeffs), None),
            (atomic_coeffs(CASE_RNG, 1, 3, n_atoms=2)[0] + [np.array([[3.0]])], 3),
        ],
        ids=["tpd", "atomic", "direct-sum", "not-tnd"],
    )
    def test_matches_per_prefix_definition(self, coeffs, expected):
        # the definition, one prefix at a time
        seq = HermSeq(coeffs)
        assert prefix_scan(seq)[0] == expected
        assert first_violation(seq) == expected

    def test_only_the_per_prefix_fallback_logs(self, caplog):
        caplog.set_level(logging.DEBUG, logger="matspec")
        c = list(random_tpd_seq(np.random.default_rng(7), 2, 2).coeffs)
        assert first_violation(HermSeq(c)) is None
        # lambda_min(T_1) = -1e-9 is within the interlacing bound -2e-9
        assert first_violation(HermSeq([np.eye(1), (1.0 + 1e-9) * np.eye(1)])) is None
        assert caplog.records == []
        c[2] = 50.0 * c[2]
        seq = HermSeq(c)
        assert first_violation(seq) == 2
        lam = np.linalg.eigvalsh(toeplitz_matrix(seq, 2))[0]
        bound = -1e-9 * (1.0 + np.linalg.norm(c[0], 2))
        [record] = caplog.records
        assert (record.name, record.levelno) == ("matspec", logging.DEBUG)
        assert record.getMessage() == (
            f"prefix scan fallback: lambda_min(re T_2) = {lam:.3e} "
            f"below {bound:.3e}, first bad T_2"
        )


def leaving_predictor(name):
    """A sequence and its central predictor, for the draws below."""
    seq = {
        "tpd": lambda: random_tpd_seq(np.random.default_rng(5), 2, 6),
        "var1": lambda: HermSeq(var1_coeffs(np.random.default_rng(2), 2, 0.9, 5)),
        "tpd1": lambda: random_tpd_seq(np.random.default_rng(1), 1, 3),
    }[name]()
    return seq, _predictor(toeplitz_matrix(seq, len(seq) - 1), seq.q, DEFAULT_RANK_RTOL, True)[0]


def extend_with(seq, w, target):
    """`_continue` of ``seq`` with predictor ``w`` and the ||C_0|| a scan reads."""
    return _continue(seq, w, target, DEFAULT_PSD_TOL, spec_norm(seq.coeffs[0]))


def continued(seq, w, target):
    """The recursion C_k = sum_{m=1..n} C_{k-m} w_m up to ``target``
    coefficients, one product at a time."""
    c = list(seq.coeffs)
    for k in range(len(seq), target):
        c.append(sum((c[k - m] @ w[m - 1] for m in range(1, len(w) + 1)), np.zeros_like(c[0])))
    return HermSeq(c)


def shifted_head(t, q, target):
    """T_n with C_0 moved along the identity so that lambda_min(re T_n) is
    ``target`` times tol (1 + ||C_0||), for PSD C_0 and a small move."""
    lam = np.linalg.eigvalsh(re_mat(t))[0]
    scale = np.linalg.eigvalsh(re_mat(t[:q, :q]))[-1]
    c = (-target * DEFAULT_PSD_TOL * (1.0 + scale) - lam) / (1.0 + target * DEFAULT_PSD_TOL)
    return t + c * np.eye(len(t))


class TestExtensionCheck:
    # The central extension is TND by construction: one shifted Cholesky of
    # re T_{L-1} says so, and the scan runs only to name a failure
    @pytest.mark.parametrize("name, scale, bad", [
        ("tpd", 1.5, 15), ("tpd", 3.0, 7), ("var1", 1.5, 5), ("var1", 1.1, 6),
        ("var1", 3.0, 5), ("tpd1", 3.0, 4),
    ])
    def test_predictor_leaving_the_cone_names_the_first_bad_block(self, name, scale, bad):
        # the error and index the eigvalsh scan of the result gave, which is
        # also the per-prefix definition's
        seq, w = leaving_predictor(name)
        target = 3 * len(seq)
        with pytest.raises(ModelError) as exc:
            extend_with(seq, scale * w, target)
        assert str(exc.value) == f"central extension not nonnegative Hermitian at T_{bad}"
        assert exc.value.index == bad
        assert prefix_scan(continued(seq, scale * w, target))[0] == bad

    @pytest.mark.parametrize("name, scale", [("tpd", 1.1), ("tpd1", 1.5), ("tpd1", 1.1)])
    def test_predictor_inside_the_cone_passes(self, name, scale):
        seq, w = leaving_predictor(name)
        assert len(extend_with(seq, scale * w, 3 * len(seq))) == 3 * len(seq)

    @pytest.mark.parametrize("name", ["tpd", "var1", "tpd1"])
    def test_block_recurrence_is_the_per_term_recursion(self, name):
        # one block-row product per coefficient (`toeplitz._recur`) against
        # the sum of products; the stored prefix is copied bit for bit
        seq, w = leaving_predictor(name)
        target = 3 * len(seq)
        got, want = extend_with(seq, w, target), continued(seq, w, target)
        assert np.array(got.coeffs[: len(seq)]).tobytes() == np.array(seq.coeffs).tobytes()
        gap = max(spec_norm(a - b) for a, b in zip(got.coeffs, want.coeffs))
        assert gap <= 1e-14 * spec_norm(seq.coeffs[0])

    @pytest.mark.parametrize("seed", range(12))
    def test_cholesky_then_scan_is_the_scan(self, seed, monkeypatch):
        # passing, near-bound and failing T: lambda_min(re T) at
        # -tol (1 + ||C_0||) times 1 - 1e-3 (inside: the Cholesky alone
        # answers), 1 + 1e-3 (just outside: the scan runs, and its
        # per-prefix margins pass) and 100 (the scan names a bad T_k)
        rng = np.random.default_rng(seed)
        q, n = 1 + seed % 3, 2 + seed % 4
        ext = central_extend(random_tpd_seq(rng, q, n), 2 * (n + 1))
        t = toeplitz_matrix(ext, len(ext) - 1)
        cases = [t] + [shifted_head(t, q, f) for f in (1.0 - 1e-3, 1.0 + 1e-3, 100.0)]
        want = [_scan(tk, q, DEFAULT_PSD_TOL).bad for tk in cases]
        scans = []
        scan = matspec.toeplitz._scan

        def counted(*args):
            scans.append(len(args[0]))
            return scan(*args)

        monkeypatch.setattr(matspec.toeplitz, "_scan", counted)
        for tk, bad in zip(cases, want):
            c0_norm = spec_norm(tk[:q, :q])
            assert _first_violation_certified(tk, q, DEFAULT_PSD_TOL, c0_norm) == bad
        assert want[:3] == [None, None, None] and want[3] is not None
        assert scans == [len(t)] * 2

    def test_failed_cholesky_logs_one_line(self, caplog):
        caplog.set_level(logging.DEBUG, logger="matspec")
        seq, w = leaving_predictor("tpd1")
        central_extend(seq, 3 * len(seq))
        assert caplog.records == []
        with pytest.raises(ModelError):
            extend_with(seq, 3.0 * w, 3 * len(seq))
        shift = DEFAULT_PSD_TOL * (1.0 + spec_norm(seq.coeffs[0]))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("Cholesky")]
        assert lines == [
            f"Cholesky of re T_{3 * len(seq) - 1} + {shift:.3e} I failed (size {3 * len(seq)}), "
            "first bad T_4"
        ]


def assert_same_entry(got, want):
    """Every field of two entry passes bit for bit, but the certificate's."""
    for name in ("t", "c0_norm", "rank", "full_rank", "w", "u_r", "s_r"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None or np.isscalar(b):
            assert a == b, name
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def entry_draw(kind, rng, q, n, rho=0.9):
    """Coefficients C_0..C_n of one draw for the entry certificate tests."""
    if kind == "tpd":
        return list(random_tpd_seq(rng, q, n).coeffs)
    if kind == "trig":
        return trig_coeffs(rng, q, n + 1, n + 1)
    if kind == "var1":
        return var1_coeffs(rng, q, rho, n + 1)
    if kind == "atomic":
        return atomic_coeffs(rng, q, n + 1, n_atoms=max(1, n // 2))[0]
    # an atom (+) a VAR(1): blocks of size q + 1
    return direct_sum(atomic_coeffs(rng, 1, n + 1, n_atoms=1)[0], var1_coeffs(rng, q, rho, n + 1))


def certificate_shift(t, rank_rtol):
    """The shift s of `_enter`'s certificate on T_n = ``t``."""
    return (rank_rtol + 4.0 * (len(t) + 1) ** 2 * np.finfo(float).eps) * np.linalg.norm(re_mat(t))


class TestEntryCertificate:
    """`_enter` clears full-rank data by one Cholesky of re T_n - s I and
    scans the rest; against `_oracle.enter_by_scan`, the eigvalsh-only
    entry pass, on every input: each one it clears the oracle calls full
    rank, with the same re T_n, ||C_0|| and predictor bit for bit."""

    @pytest.mark.parametrize("kind", ["tpd", "trig", "var1"])
    def test_cleared_inputs_are_full_rank_and_bit_identical(self, kind):
        rng = np.random.default_rng(len(kind))
        cleared = 0
        rhos = [1.0 - 10.0 ** -k for k in range(1, 10)]
        for i, (q, n) in enumerate((q, n) for q in (1, 2, 3) for n in (0, 1, 2, 4, 8, 12)):
            coeffs = entry_draw(kind, rng, q, n, rhos[i % len(rhos)])
            t = toeplitz_matrix(HermSeq(coeffs), n)
            got = _enter(t, q, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
            want = enter_by_scan(t, q, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
            if got.cleared:
                assert want.full_rank and want.rank == len(t)
                cleared += 1
            assert_same_entry(got, want)
            # none of these full-rank draws lies between the cutoff and the shift
            assert got.cleared == want.full_rank
        # one VAR(1) at rho = 1 - 1e-9, q = 3, n = 12, is singular at the cutoff
        assert cleared == (17 if kind == "var1" else 18)

    @pytest.mark.parametrize("rank_rtol", [1e-10, 1e-15, 0.5])
    def test_edge_of_the_cutoff_and_the_shift(self, rank_rtol):
        # white noise C_0 = diag(1, eps), C_1..C_3 = 0: rank T_3 is 8 when
        # eps > rank_rtol and the Cholesky clears it when eps > s.  eps
        # straddles both; between them the scan answers, and agrees
        def entry(eps):
            seq = HermSeq([np.diag([1.0, eps]).astype(complex)] + [np.zeros((2, 2))] * 3)
            t = toeplitz_matrix(seq, 3)
            got = _enter(t, 2, DEFAULT_PSD_TOL, rank_rtol)
            assert_same_entry(got, enter_by_scan(t, 2, DEFAULT_PSD_TOL, rank_rtol))
            return got, certificate_shift(t, rank_rtol)

        shift = entry(rank_rtol)[1]
        cleared = []
        for eps in (0.5 * rank_rtol, rank_rtol, 1.5 * rank_rtol, 0.99 * shift, 1.01 * shift, 2.0 * shift):
            got, s = entry(eps)
            lam = (1.0, eps)  # each four times
            assert got.rank == 4 * sum(x > rank_rtol * max(lam) for x in lam)
            assert got.cleared == (eps > s)
            cleared.append(got.cleared)
        # at rank_rtol = 0.5, s >= ||re T_3||_F / 2 >= lambda_max: never
        assert cleared == [False] * 4 + [rank_rtol < 0.5] * 2

    @pytest.mark.parametrize(
        "coeffs, psd_tol, rank_rtol",
        [
            (atomic_coeffs(CASE_RNG, 1, 3, n_atoms=2)[0] + [np.array([[3.0]])], DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL),
            ([np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5 * np.eye(2)], DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL),
            ([np.array([[2.0, 1e-3j], [0.0, 2.0]]), np.eye(2)], DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL),
            ([-np.eye(2), np.zeros((2, 2))], DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL),
            ([np.eye(1), 2.0 * np.eye(1)], DEFAULT_PSD_TOL, 0.5),
            (list(random_tpd_seq(CASE_RNG, 2, 3).coeffs), 1.5, DEFAULT_RANK_RTOL),
            (list(random_tpd_seq(CASE_RNG, 2, 3).coeffs), DEFAULT_PSD_TOL, 0.0),
        ],
        ids=["not-tnd", "skew-head", "skew-head-pd", "negative", "t1-fails", "psd-tol", "rank-rtol"],
    )
    def test_refusals_match_the_scan(self, coeffs, psd_tol, rank_rtol):
        # the same exception type, index and message as the scan alone
        seq = HermSeq(coeffs)
        t = toeplitz_matrix(seq, len(seq) - 1)
        with pytest.raises((ModelError, InvalidInputError)) as want:
            enter_by_scan(t, seq.q, psd_tol, rank_rtol)
        with pytest.raises(want.type) as got:
            _enter(t, seq.q, psd_tol, rank_rtol)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "index", None) == getattr(want.value, "index", None)

    def test_declined_certificate_logs_one_line(self, caplog):
        # full-rank data clears silently; singular data declines with one
        # line giving the size and the shift, then the scan answers
        caplog.set_level(logging.DEBUG, logger="matspec")
        full = toeplitz_matrix(random_tpd_seq(np.random.default_rng(3), 2, 3), 3)
        assert _enter(full, 2, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL).cleared
        assert caplog.records == []
        singular = toeplitz_matrix(HermSeq(atomic_coeffs(np.random.default_rng(3), 2, 4, 2)[0]), 3)
        entry = _enter(singular, 2, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
        assert not entry.cleared and not entry.full_rank
        [record] = caplog.records
        assert (record.name, record.levelno) == ("matspec", logging.DEBUG)
        assert record.getMessage() == (
            f"full-rank certificate declined: Cholesky of re T_3 - "
            f"{certificate_shift(singular, DEFAULT_RANK_RTOL):.3e} I failed (size 8)"
        )

    def test_cholesky_leaves_its_matrix_bit_for_bit(self):
        # the shift is written into the diagonal and restored, pass or fail
        rng = np.random.default_rng(4)
        for t in (re_mat(toeplitz_matrix(random_tpd_seq(rng, 2, 3), 3)), np.zeros((3, 3), dtype=complex)):
            before = t.copy()
            for shift in (-1e-3, 1e-3, -1e3):
                _cholesky_clears(t, shift)
                assert t.tobytes() == before.tobytes()

    def test_norm_beyond_the_float_range_clears(self):
        # the squares of ||re T_n||_F overflow at 1e160; the shift reads the
        # norm of a power-of-two-scaled copy, so the certificate clears the
        # data as at unit scale, with the scan's entry, and central_extend
        # runs with no warning
        seq = HermSeq([np.array([[1e160]]), np.array([[0.5e160]])])
        t = toeplitz_matrix(seq, 1)
        got = _enter(t, 1, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
        assert got.cleared and got.full_rank
        assert_same_entry(got, enter_by_scan(t, 1, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL))
        assert len(central_extend(seq, 4)) == 4


@st.composite
def entry_draws(draw):
    kind = draw(st.sampled_from(["tpd", "trig", "var1", "atomic", "dsum"]))
    q, n = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = 1.0 - 10.0 ** -draw(st.integers(1, 9))
    return q, n, entry_draw(kind, rng, q, n, rho)


@settings(derandomize=True, database=None, deadline=None)
@given(entry_draws())
def test_entry_certificate_matches_the_scan(draw):
    _, n, coeffs = draw
    seq = HermSeq(coeffs)  # a direct sum has q + 1 rows
    q, t = seq.q, toeplitz_matrix(seq, n)
    got = _enter(t, q, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
    want = enter_by_scan(t, q, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
    assert not got.cleared or want.full_rank
    assert_same_entry(got, want)


def schur_answer(coeffs, rank_rtol):
    """`_schur_rank` of one draw, and `_rank` of eigvalsh of its re T_n."""
    seq = HermSeq(coeffs)
    q, n = seq.q, len(seq) - 1
    t = _re_toeplitz(toeplitz_matrix(seq, n), q)
    scaled, e = _unit_scaled(t, q)
    fit = _svd_fit(scaled, e, q, rank_rtol)
    got = _schur_rank(scaled, q, fit, np.linalg.norm(scaled), rank_rtol)
    return got, _rank(np.linalg.eigvalsh(t), rank_rtol)


def white_noise(eps, n):
    """C_0 = diag(1, eps), C_1..C_n = 0: rank T_n is 2 (n + 1) when
    eps > rank_rtol."""
    return [np.diag([1.0, eps]).astype(complex)] + [np.zeros((2, 2))] * n


@st.composite
def singular_draws(draw):
    """Atomic, atomic (+) VAR(1), near-unit-root AR(1) with
    rho = 1 - 10^-k (k = 2..12), and white noise at the edges of the
    cutoff and of the entry's shift, with its rank_rtol; sizes on both
    sides of _SCHUR_MIN_SIZE."""
    kind = draw(st.sampled_from(["atomic", "dsum", "unit-root", "edge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "unit-root":
        rho = 1.0 - 10.0 ** -draw(st.integers(2, 12))
        return [np.array([[rho**j]]) for j in range(draw(st.integers(2, 46)))], DEFAULT_RANK_RTOL
    if kind == "edge":
        rank_rtol, n = draw(st.sampled_from([1e-10, 1e-15, 0.5])), draw(st.sampled_from([3, 20]))
        shift = certificate_shift(toeplitz_matrix(HermSeq(white_noise(rank_rtol, n)), n), rank_rtol)
        factor = draw(st.sampled_from([0.5, 1.0, 1.5]))
        eps = draw(st.sampled_from([factor * rank_rtol, (0.5 + factor / 2) * shift]))
        return white_noise(eps, n), rank_rtol
    q, n = draw(st.integers(1, 3)), draw(st.integers(1, 14))
    return entry_draw(kind, rng, q, n, 1.0 - 10.0 ** -draw(st.integers(1, 9))), DEFAULT_RANK_RTOL


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(singular_draws())
def test_schur_rank_is_the_eigvalsh_count_where_it_answers(draw):
    # wherever the Schur certificate answers, its rank is the count `_rank`
    # reads off eigvalsh of re T_n, and the entry pass stays the scan's
    coeffs, rank_rtol = draw
    got, want = schur_answer(coeffs, rank_rtol)
    assert got is None or got == want
    seq = HermSeq(coeffs)
    t = toeplitz_matrix(seq, len(seq) - 1)
    assert_same_entry(_enter(t, seq.q, DEFAULT_PSD_TOL, rank_rtol),
                      enter_by_scan(t, seq.q, DEFAULT_PSD_TOL, rank_rtol))


class TestSchurRank:
    """rank T_n of singular data from the predictor's SVD and the q x q
    Schur complement (`_schur_rank`), the scan only where it cannot tell."""

    def test_answers_on_atomic_and_deflated_data(self):
        # 60 atomic and atom (+) VAR(1) draws, q = 1..3, n = 1..8: every
        # one is decided, at the scan's count
        rng = np.random.default_rng(0)
        for i in range(60):
            seq = HermSeq(entry_draw("atomic" if i % 2 else "dsum", rng, 1 + i % 3, 1 + i % 8))
            got, want = schur_answer(list(seq.coeffs), DEFAULT_RANK_RTOL)
            assert got == want < len(seq) * seq.q

    @pytest.mark.parametrize("k", range(2, 13))
    def test_near_unit_root(self, k):
        # AR(1) at rho = 1 - 10^-k, n = 1, 3, 5, 8, 10: eigenvalues far from
        # the cutoff (k <= 8 full rank, k >= 11 rank 1) are decided; at
        # k = 9 and 10 T_n has eigenvalues within a factor 2 of
        # 1e-10 lambda_max, where the scan decides
        rho = 1.0 - 10.0**-k
        answers = [schur_answer([np.array([[rho**j]]) for j in range(n + 1)], DEFAULT_RANK_RTOL)
                   for n in (1, 3, 5, 8, 10)]
        assert all(got in (None, want) for got, want in answers)
        if k not in (9, 10):
            assert all(got is not None for got, _ in answers)

    def test_eigenvalue_in_the_band_takes_the_scan_and_logs_it(self, caplog):
        # AR(1) at rho = 1 - 1e-9, n = 40: T_40 has eigenvalues within a
        # factor 2 of its cutoff.  The certificate cannot tell, and the scan
        # decides, with the scan's entry, after one debug line
        caplog.set_level(logging.DEBUG, logger="matspec")
        t = toeplitz_matrix(HermSeq([np.array([[(1.0 - 1e-9) ** j]]) for j in range(41)]), 40)
        got = _enter(t, 1, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
        assert not got.full_rank and got.rank == 10
        assert_same_entry(got, enter_by_scan(t, 1, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL))
        declined, scanned = [r.getMessage() for r in caplog.records]
        assert declined.startswith("full-rank certificate declined: ")
        assert scanned == ("singular entry: rank T_40 undecided by the Schur certificate "
                           "(size 41), the scan decides")

    def test_small_singular_entries_take_the_scan(self, caplog, monkeypatch):
        # below _SCHUR_MIN_SIZE one eigvalsh of re T_n is cheaper than the
        # certificate: a singular T_3 of size 8 takes the scan silently
        caplog.set_level(logging.DEBUG, logger="matspec")

        def refuse(*args):
            raise AssertionError("the Schur certificate ran")

        monkeypatch.setattr(matspec.toeplitz, "_schur_rank", refuse)
        t = toeplitz_matrix(HermSeq(atomic_coeffs(np.random.default_rng(3), 2, 4, 2)[0]), 3)
        assert len(t) < matspec.toeplitz._SCHUR_MIN_SIZE
        got = _enter(t, 2, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
        assert_same_entry(got, enter_by_scan(t, 2, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL))
        [declined] = [r.getMessage() for r in caplog.records]
        assert declined.startswith("full-rank certificate declined: ")

    @pytest.mark.parametrize(
        "coeffs",
        [
            atomic_coeffs(CASE_RNG, 2, 21, n_atoms=4)[0][:20] + [np.eye(2)],
            [np.eye(1)] * 40 + [np.array([[1.0 - 1e-6]])],
            direct_sum(atomic_coeffs(CASE_RNG, 1, 21, n_atoms=2)[0],
                       [np.array([[0.9**j]]) for j in range(20)] + [np.array([[2.0]])]),
        ],
        ids=["frozen-then-off", "ones-then-short", "dsum-then-off"],
    )
    def test_refusals_of_singular_data_match_the_scan(self, caplog, coeffs):
        # singular prefixes of size 41 or 42 that leave the cone at the last
        # coefficient: neither Cholesky clears them, the second says so in
        # one debug line, and the scan raises its own error
        caplog.set_level(logging.DEBUG, logger="matspec")
        seq = HermSeq(coeffs)
        t = toeplitz_matrix(seq, len(seq) - 1)
        with pytest.raises(ModelError) as want:
            enter_by_scan(t, seq.q, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
        caplog.clear()
        with pytest.raises(ModelError) as got:
            _enter(t, seq.q, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
        assert (str(got.value), got.value.index) == (str(want.value), want.value.index)
        declined, scanned, failed = [r.getMessage() for r in caplog.records]
        assert declined.startswith("full-rank certificate declined: ")
        assert scanned == (f"singular entry: Cholesky of re T_{len(seq) - 1} + nu I failed "
                           f"(size {len(t)}), the scan decides")
        assert failed.startswith("prefix scan fallback: ")


class TestBallParams:
    def test_order_zero_ball(self):
        c0 = random_psd(RNG, 2)
        ball = ball_params(HermSeq([c0]), 0)
        assert np.allclose(ball.center, np.zeros((2, 2)))
        assert np.allclose(ball.left, c0)
        assert np.allclose(ball.right, c0)

    def test_ones_ball_degenerates(self):
        ball = ball_params(ones_seq(2), 1)
        assert np.allclose(ball.center, 1.0)
        assert np.allclose(ball.left, 0.0, atol=1e-14)
        assert np.allclose(ball.right, 0.0, atol=1e-14)

    def test_scalar_half_ball(self):
        seq = HermSeq([np.array([[1.0]]), np.array([[0.5]])])
        ball = ball_params(seq, 1)
        assert np.allclose(ball.center, 0.25)
        assert np.allclose(ball.left, 0.75)
        assert np.allclose(ball.right, 0.75)

    def test_semiradii_psd(self):
        seq = random_tpd_seq(RNG, 3, 3)
        ball = ball_params(seq, 3)
        for side in (ball.left, ball.right):
            assert np.allclose(side, side.conj().T)
            assert np.linalg.eigvalsh(side).min() > -1e-10

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_semiradii_match_the_pseudoinverse_formulas(self, q):
        # left = C_0 - Z T' Z* and right = C_0 - Y* T' Y with the textbook
        # pseudoinverse T' of T_{n-1}, which ball_params reads off the
        # predictor's SVD instead
        for seed in range(5):
            seq = random_tpd_seq(np.random.default_rng(seed), q, 5)
            c0 = seq.coeff(0)
            tol = 1e-12 * spec_norm(c0)
            for n in range(1, len(seq)):
                t = toeplitz_matrix(seq, n)
                tp = pinv(t[:-q, :-q])
                y, z = t[q:, :q], t[-q:, :-q]
                ball = ball_params(seq, n)
                assert spec_norm(ball.left - (c0 - z @ tp @ z.conj().T)) <= tol
                assert spec_norm(ball.right - (c0 - y.conj().T @ tp @ y)) <= tol

    def test_rejects_non_tnd_prefix(self):
        seq = HermSeq([np.array([[1.0]]), np.array([[2.0]]), np.array([[0.5]])])
        with pytest.raises(ModelError) as exc:
            ball_params(seq, 2)
        assert "T_1" in str(exc.value)

    def test_unitary_equivariance(self):
        seq = random_tpd_seq(RNG, 2, 2)
        u = random_unitary(RNG, 2)
        rotated = conjugate_by_unitary(seq, u)
        a, b = ball_params(seq, 2), ball_params(rotated, 2)
        assert np.allclose(u.conj().T @ a.center @ u, b.center, atol=1e-10)
        assert np.allclose(u.conj().T @ a.left @ u, b.left, atol=1e-10)
        assert np.allclose(u.conj().T @ a.right @ u, b.right, atol=1e-10)


class TestBallMembership:
    def test_center_is_member(self):
        seq = random_tpd_seq(RNG, 2, 2)
        ball = ball_params(seq, 2)
        assert ball_membership(ball, ball.center)

    def test_constructed_member(self):
        seq = random_tpd_seq(RNG, 2, 3)
        ball = ball_params(seq, 3)
        g = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        k = 0.9 * g / np.linalg.norm(g, 2)
        x = ball.center + psd_sqrt(ball.left) @ k @ psd_sqrt(ball.right)
        assert ball_membership(ball, x)

    def test_inflated_contraction_rejected(self):
        seq = random_tpd_seq(RNG, 2, 2)
        ball = ball_params(seq, 2)
        g = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        k = 1.5 * g / np.linalg.norm(g, 2)
        x = ball.center + psd_sqrt(ball.left) @ k @ psd_sqrt(ball.right)
        assert not ball_membership(ball, x)

    def test_degenerate_ball_requires_center(self):
        ball = ball_params(ones_seq(2), 1)
        assert ball_membership(ball, ball.center)
        assert not ball_membership(ball, ball.center + 0.1)

    def test_range_condition_rejected(self):
        # left semiradius diag(3/4, 0): offsets leaving its range are outside
        seq = HermSeq([np.eye(2), np.diag([0.5, 1.0]).astype(complex)])
        ball = ball_params(seq, 1)
        bad = ball.center + np.array([[0.0, 0.0], [0.1, 0.0]])
        assert not ball_membership(ball, bad)

    def test_membership_matches_extension(self):
        # x inside the ball iff the extended sequence stays TND
        seq = HermSeq([np.array([[1.0]]), np.array([[0.5]])])
        ball = ball_params(seq, 1)
        for x in (-0.4, 0.25, 0.8):
            mat = np.array([[x]], dtype=complex)
            extended = seq.append(mat)
            agrees = classify(extended) is not Classification.NOT_TND
            assert ball_membership(ball, mat) == agrees


class TestRankDrop:
    def test_ones_sequence_drops(self):
        assert rank_drop(ones_seq(2), 1)

    def test_tpd_never_drops(self):
        seq = random_tpd_seq(RNG, 2, 2)
        assert not rank_drop(seq, 1)
        assert not rank_drop(seq, 2)

    def test_two_block_case(self):
        # rank T_1 = 3 while rank T_0 = 2, checked against a direct eig count
        c0 = np.eye(2)
        c1 = np.diag([0.0, 1.0]).astype(complex)
        seq = HermSeq([c0, c1])
        t1 = toeplitz_matrix(seq, 1)
        eig = np.linalg.eigvalsh(t1)
        assert int(np.sum(eig > 1e-9)) == 3
        assert not rank_drop(seq, 1)


class TestConjugateAndSums:
    def test_non_unitary_rejected(self):
        with pytest.raises(InvalidInputError):
            conjugate_by_unitary(ones_seq(2), 2.0 * np.eye(1))

    def test_rotation_of_diagonal_example(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        seq = HermSeq([np.eye(2), np.diag([0.0, 1.0]).astype(complex)])
        rot = conjugate_by_unitary(seq, h)
        expect = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(rot.coeff(1), expect, atol=1e-14)

    def test_classification_invariant_under_rotation(self):
        seq = random_tpd_seq(RNG, 2, 3)
        u = random_unitary(RNG, 2)
        assert classify(conjugate_by_unitary(seq, u)) is classify(seq)

    def test_direct_sum_stays_tnd(self):
        a, _ = atomic_coeffs(RNG, 1, 3, n_atoms=2)
        b, _ = atomic_coeffs(RNG, 2, 3, n_atoms=1)
        seq = HermSeq(direct_sum(a, b))
        assert classify(seq) is not Classification.NOT_TND

    def test_appending_center_stays_tnd(self):
        seq = random_tpd_seq(RNG, 2, 2)
        for _ in range(3):
            seq = seq.append(ball_params(seq, len(seq) - 1).center)
        assert classify(seq) is not Classification.NOT_TND
