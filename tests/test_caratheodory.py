import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle
import matspec.caratheodory as caratheodory
import matspec.measure as measure
from matspec import (
    CaratheodoryQuotient,
    GammaSeq,
    HermSeq,
    MatPoly,
    caratheodory_check,
    caratheodory_first_failure,
    central_measure,
    central_quotient,
    first_violation,
    gamma_from_covariance,
    pd_polynomials,
    phi_at,
    rational_values,
    taylor_coefficients,
    SpectralMeasure,
)
from matspec.errors import InvalidInputError, MatSpecError, ModelError
from matspec.linalg import DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL, re_mat
from matspec.measure import DISK_MARGIN, _coefficients
from matspec.toeplitz import _enter, toeplitz_matrix

from _gen import (
    atomic_coeffs,
    direct_sum,
    mixed_coeffs,
    random_tpd_seq,
    trig_coeffs,
    var1_coeffs,
)
from _oracle import (
    NoLimitError,
    numerical_rank,
    radial_atom_limit,
    row_companion_zeros,
    taylor_by_division,
)

RNG = np.random.default_rng(41)
# parametrised inputs draw from their own stream, leaving RNG untouched
CASE_RNG = np.random.default_rng(42)


def scalar_gamma(*vals):
    return GammaSeq([np.array([[v]], dtype=complex) for v in vals])


def scalar_seq(*vals):
    return HermSeq([np.array([[v]], dtype=complex) for v in vals])


def ones_quotient():
    # Phi(z) = (1 + z)/(1 - z), the Caratheodory function of a mass at 1
    return central_quotient(gamma_from_covariance(scalar_seq(1.0, 1.0)))


class TestCaratheodoryCheck:
    def test_tnd_gammas_pass(self):
        g = gamma_from_covariance(random_tpd_seq(RNG, 2, 3))
        assert caratheodory_check(g)
        assert caratheodory_first_failure(g) is None

    def test_failure_index(self):
        # re S_1 for Gamma = (1, 4) is [[1, 2], [2, 1]], which is indefinite
        g = scalar_gamma(1.0, 4.0)
        assert caratheodory_first_failure(g) == 1
        assert not caratheodory_check(g)

    def test_inline_eigen_oracle(self):
        g = scalar_gamma(1.0, 1.2)
        s1 = np.array([[1.0, 0.0], [1.2, 1.0]])
        expect = np.linalg.eigvalsh((s1 + s1.T) / 2).min() >= 0
        assert caratheodory_check(g) == expect

    @pytest.mark.parametrize(
        "coeffs",
        [
            random_tpd_seq(CASE_RNG, 2, 4).coeffs,
            trig_coeffs(CASE_RNG, 2, 6, deg=3),
            atomic_coeffs(CASE_RNG, 2, 6, n_atoms=3)[0],
            mixed_coeffs(CASE_RNG, 3, 5)[0],
            # breaks at T_2: the atomic prefix C_0, C_1 plus a too-large C_2
            atomic_coeffs(CASE_RNG, 1, 2, n_atoms=2)[0] + [np.array([[5.0]])],
            [np.eye(2), 2.0 * np.eye(2)],
        ],
        ids=["tpd", "trig", "atomic", "mixed", "not-tnd-2", "not-tnd-1"],
    )
    def test_first_failure_is_covariance_first_violation(self, coeffs):
        c = HermSeq(coeffs)
        assert caratheodory_first_failure(gamma_from_covariance(c)) == first_violation(c)


class TestCentralQuotient:
    def test_mass_at_one_coefficients(self):
        cq = ones_quotient()
        assert cq.order == 1
        assert np.allclose(cq.num.coeffs[:, 0, 0], [1.0, 1.0], atol=1e-12)
        assert np.allclose(cq.den.coeffs[:, 0, 0], [1.0, -1.0], atol=1e-12)

    def test_constant_case(self):
        cq = central_quotient(scalar_gamma(2.0))
        assert cq.order == 0
        assert np.allclose(phi_at(cq, 0.3 + 0.1j), [[2.0]])

    def test_order_argument_truncates(self):
        g = gamma_from_covariance(scalar_seq(1.0, 0.5, 0.25))
        cq = central_quotient(g, n=1)
        assert cq.den.degree <= 1

    def test_non_hermitian_head_rejected(self):
        with pytest.raises(InvalidInputError):
            central_quotient(scalar_gamma(1.0 + 0.5j, 0.2))

    def test_head_errors_come_from_the_one_scan(self):
        # the scan's Hermiticity test of C_0 = Gamma_0 is the one Gamma_0
        # must pass: a non-Hermitian head is an InvalidInputError even when
        # its real part is also negative, a Hermitian negative one fails T_0
        for head in (0.5j, -1.0 + 0.5j):
            with pytest.raises(InvalidInputError, match="Gamma_0 must be Hermitian"):
                central_quotient(scalar_gamma(head, 0.2))
        with pytest.raises(ModelError, match="re S_0 not nonnegative") as exc:
            central_quotient(scalar_gamma(-1.0, 0.2))
        assert exc.value.index == 0
        # a head Hermitian within psd_tol passes and is num(0) as given
        head = np.array([[1.0, 0.25 + 1e-12j], [0.25, 1.0]])
        cq = central_quotient(GammaSeq([head, 0.2 * np.eye(2)]))
        assert np.array_equal(cq.num.coeffs[0], head)

    def test_non_caratheodory_rejected(self):
        with pytest.raises(ModelError) as exc:
            central_quotient(scalar_gamma(1.0, 4.0))
        assert "re S_1" in str(exc.value)

    def test_phi_outside_disk_rejected(self):
        cq = ones_quotient()
        with pytest.raises(InvalidInputError):
            phi_at(cq, 1.0)

    def test_phi_value(self):
        assert np.allclose(phi_at(ones_quotient(), 0.5), [[3.0]], atol=1e-12)

    def test_rational_values_stacked(self):
        cq = ones_quotient()
        zs = np.array([0.0, 0.5, 0.3j])
        vals = rational_values(cq, zs)
        assert vals.shape == (3, 1, 1)
        expect = (1 + zs) / (1 - zs)
        assert np.allclose(vals[:, 0, 0], expect, atol=1e-12)

    def test_real_part_nonnegative_on_disk(self):
        g = gamma_from_covariance(random_tpd_seq(RNG, 2, 3))
        cq = central_quotient(g)
        for _ in range(40):
            z = RNG.uniform(0, 0.97) * np.exp(1j * RNG.uniform(0, 2 * np.pi))
            phi = phi_at(cq, z)
            low = np.linalg.eigvalsh(re_mat(phi)).min()
            assert low > -1e-9 * (1.0 + np.linalg.norm(phi, 2))

    def test_taylor_reproduces_gamma(self):
        seq = random_tpd_seq(RNG, 2, 3)
        g = gamma_from_covariance(seq)
        cq = central_quotient(g)
        coeffs = taylor_coefficients(cq, 4)
        for j in range(4):
            assert np.allclose(coeffs[j], g.coeff(j), atol=1e-9)

    def test_taylor_beyond_data_matches_extension(self):
        from matspec import central_extend

        seq = random_tpd_seq(RNG, 2, 2)
        cq = central_quotient(gamma_from_covariance(seq))
        coeffs = taylor_coefficients(cq, 6)
        ext = central_extend(seq, 6)
        for j in range(3, 6):
            assert np.allclose(coeffs[j], 2.0 * ext.coeff(j), atol=1e-8)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_taylor_matches_series_division(self, q):
        # a hand-built quotient with den_0 != I and deg num > deg den: the
        # recurrence against the nested power-series division
        rng = np.random.default_rng(q)
        shape = (q, q)

        def draw(k):
            return rng.standard_normal((k,) + shape) + 1j * rng.standard_normal((k,) + shape)

        den = draw(3)
        den[0] += 3.0 * np.eye(q)
        cq = CaratheodoryQuotient(MatPoly(draw(5)), MatPoly(den))
        got, want = taylor_coefficients(cq, 12), taylor_by_division(cq, 12)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_taylor_of_singular_den0_is_a_typed_error(self):
        # den = z: num den^-1 has a pole at 0 and no Taylor series there
        cq = CaratheodoryQuotient(MatPoly([[[1.0]]]), MatPoly([[[0.0]], [[1.0]]]))
        with pytest.raises(InvalidInputError, match=r"den\(0\) is singular") as info:
            taylor_coefficients(cq, 3)
        assert isinstance(info.value, MatSpecError)

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: central_quotient(scalar_gamma(1.0, 0.5), 2), IndexError, "order 2 outside"),
            (lambda: central_quotient(scalar_gamma(1.0, 0.5), -1), IndexError, "order -1 outside"),
            # den = 1 - z is singular at 1, which only phi_at refuses
            (lambda: rational_values(ones_quotient(), 1.0), ModelError, "numerically singular"),
            (lambda: taylor_coefficients(ones_quotient(), 0), InvalidInputError, "count"),
        ],
        ids=["order-2", "order-(-1)", "singular-den", "count-0"],
    )
    def test_input_checks(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_rank_of_real_part_matches_head(self):
        # degenerate data: rank of re Phi inside the disk equals rank of C_0
        seq = HermSeq([np.eye(2), np.diag([0.0, 1.0]).astype(complex)])
        cq = central_quotient(gamma_from_covariance(seq))
        phi = phi_at(cq, 0.3 + 0.2j)
        assert numerical_rank(re_mat(phi)) == 2
        seq2 = HermSeq([np.diag([1.0, 0.0]).astype(complex)])
        cq2 = central_quotient(gamma_from_covariance(seq2))
        assert numerical_rank(re_mat(phi_at(cq2, 0.5j))) == 1


def numerator_data(kind, rng, q, n):
    """C_0..C_n of one numerator draw: TPD data, rank-deficient atomic data,
    an atom (+) VAR(1) direct sum (q >= 2), whose measure's quotient is
    deflated once n >= 1, or TPD data under a Gamma_0 that is Hermitian only
    within psd_tol ("skew-head")."""
    if kind in ("tpd", "skew-head"):
        return list(random_tpd_seq(rng, q, n).coeffs)
    if kind == "singular":
        return atomic_coeffs(rng, q, n + 1, n_atoms=max(1, n // 2))[0]
    atom = atomic_coeffs(rng, 1, n + 1, n_atoms=1)[0]
    return direct_sum(atom, var1_coeffs(rng, q - 1, 0.7, n + 1))


class TestNumerator:
    """num of `_central_quotient`, one product per order with a prefix of
    re T_n's first block row, against the paper's dense S_{n-1}* w
    (`_oracle.dense_numerator`)."""

    @pytest.fixture
    def built(self, monkeypatch):
        """(Gamma_0, re T_n, w, quotient) of every `_central_quotient` call."""
        seen = []
        build = caratheodory._central_quotient

        def recorded(g0, t, w, psd=False):
            cq = build(g0, t, w, psd)
            seen.append((g0, t, w, cq))
            return cq

        for module in (caratheodory, measure):
            monkeypatch.setattr(module, "_central_quotient", recorded)
        return seen

    @pytest.mark.parametrize(
        "kind, q",
        [(kind, q) for kind in ("tpd", "singular", "deflated", "skew-head") for q in (1, 2, 3, 4)
         if (kind, q) != ("deflated", 1)],
    )
    def test_matches_the_dense_oracle(self, built, kind, q):
        rng = np.random.default_rng([q, len(kind)])
        deflated = 0
        for n in range(9):
            coeffs = numerator_data(kind, rng, q, n)
            if kind == "deflated":
                sm = central_measure(HermSeq(coeffs))
                deflated += bool(sm.atoms) and sm.quotient is not None
                continue
            if kind == "skew-head":
                skew = re_mat(rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)))
                coeffs[0] = coeffs[0] + 1e-11j * skew / np.linalg.norm(skew, 2)
            central_quotient(GammaSeq([coeffs[0]] + [2.0 * c for c in coeffs[1:]]))
        if kind == "deflated":
            assert deflated == 8  # every n >= 1 takes the deflated quotient
        assert len(built) >= 9
        for g0, t, w, cq in built:
            expect = _oracle.dense_numerator(g0, t, w)
            assert cq.num.coeffs.shape == expect.shape
            assert np.array_equal(cq.num.coeffs[0], g0)
            gap = np.max(np.linalg.norm(cq.num.coeffs - expect, 2, axis=(1, 2)))
            assert gap <= 1e-14 * np.linalg.norm(t[:q, :q], 2)
        if kind == "skew-head":
            assert any(not np.array_equal(g0, g0.conj().T) for g0, *_ in built)

    def test_recovery_reads_the_yule_walker_residual(self):
        # num = Gamma_0 (+) S_{n-1}* w recovers C_1 as the first block of
        # T_{n-1} w, so a predictor w off the Yule-Walker solution misses C_1
        # by r_0, the first block of r = Y_n - T_{n-1} w.  The truncated
        # product num_k = sum_i Gamma_{k-i} den_i would recover C_1 exactly
        # for any w, and recovery would check nothing of the predictor
        rng = np.random.default_rng(32)
        q, n = 2, 4
        seq = random_tpd_seq(rng, q, n)
        entry = _enter(toeplitz_matrix(seq, n), q, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
        w = entry.w + 1e-2 * (rng.normal(size=entry.w.shape) + 1j * rng.normal(size=entry.w.shape))
        cq = caratheodory._central_quotient(seq.coeffs[0], entry.t, w)
        r = entry.t[q:, :q] - entry.t[:-q, :-q] @ w.reshape(n * q, q)
        assert np.linalg.norm(r[:q], 2) > 1e-3
        c1 = _coefficients(SpectralMeasure(q, (), cq), [1])[0]
        assert np.linalg.norm(c1 - seq.coeff(1) + r[:q], 2) <= 1e-14 * np.linalg.norm(seq.coeff(0), 2)


class TestDiskCheck:
    """`_disk_cause` reads den's invertibility inside the disk (margin
    -NEAR_CIRCLE) and the closed-disk premise of recovery (margin
    DISK_MARGIN) off the zeros of det den, on quotients built by hand."""

    INSIDE = -caratheodory.NEAR_CIRCLE

    @staticmethod
    def quotient(den):
        den = MatPoly(den)
        return CaratheodoryQuotient(MatPoly([np.eye(den.q)]), den)

    def test_zero_off_any_sample_grid_raises(self):
        # det den = (1 - z/p)^2 vanishes at p, strictly inside the disk
        p = 0.5 * np.exp(0.1j)
        cq = self.quotient([np.eye(2), -np.eye(2) / p])
        cause = caratheodory._disk_cause(cq, self.INSIDE)
        assert cause.startswith("zero of det den at 0.497502+0.0499167j (|z| - 1 = -5.000e-01)")
        assert cause.endswith("is not certified outside the closed disk (margin -4e-02)")

    @pytest.mark.parametrize(
        "den",
        [
            [[[1.0, 1.0], [1.0, 1.0]]],
            [[[1.0, 0.0], [1.0, 0.0]], [[0.0, -1.0], [0.0, -1.0]]],
        ],
        ids=["constant", "linear"],
    )
    def test_zero_determinant_raises(self, den):
        # reading the zeros of the zero polynomial fails, for every consumer
        cq = self.quotient(den)
        with pytest.raises(InvalidInputError, match="det den is the zero polynomial"):
            caratheodory._disk_cause(cq, self.INSIDE)

    def test_zero_in_the_near_circle_band_passes(self):
        # |p| = 0.97 lies within NEAR_CIRCLE of the circle: the disk check
        # passes it, and the recovery's certificate refuses it
        p = 0.97 * np.exp(2.0j)
        assert 1.0 - abs(p) < caratheodory.NEAR_CIRCLE
        cq = self.quotient([[[1.0]], [[-1.0 / p]]])
        assert caratheodory._disk_cause(cq, self.INSIDE) is None
        assert "not certified" in caratheodory._disk_cause(cq, DISK_MARGIN)

    def test_central_quotient_names_the_innermost_zero(self, monkeypatch):
        # a den with zeros at 0.8 and 0.5i, put in place of the central one:
        # central_quotient refuses it and names the zero at 0.5i
        den = [np.eye(2), -np.diag([1.0 / 0.8, 1.0 / 0.5j])]
        monkeypatch.setattr(caratheodory, "_central_quotient", lambda *args: self.quotient(den))
        with pytest.raises(ModelError, match=r"zero of det den at \S+\+0\.5j \(\|z\| - 1 = -5\.000e-01\)"):
            central_quotient(scalar_gamma(1.0, 0.5))


def stein_draws():
    """Seeded full-rank (label, data) draws: VAR(1) up to rho = 1 - 1e-9,
    trigonometric densities and random walks inside the balls."""
    rng = np.random.default_rng(31)
    for k in (2, 5, 7, 9):
        for q in (1, 2, 3):
            for n in (1, 3, 6):
                yield f"var1 q={q} n={n} rho=1-1e-{k}", var1_coeffs(rng, q, 1.0 - 10.0**-k, n + 1)
    for q in (1, 2, 4):
        for n in (2, 8, 16):
            yield f"trig q={q} n={n}", trig_coeffs(rng, q, n + 1, n)
    for q in (1, 3):
        yield f"tpd q={q} n=5", list(random_tpd_seq(rng, q, 5).coeffs)


def assert_sound(cq):
    """Whether the Stein certificate holds; when it does, the zeros of det
    den from the transposed companion, the innermost a zero of den to
    roundoff, lie outside |z| <= 1 + DISK_MARGIN."""
    if cq._certified < DISK_MARGIN:
        return False
    zs = row_companion_zeros(cq.den)
    if zs.size:
        inner = zs[np.argmin(np.abs(zs))]
        size = sum(np.linalg.norm(c, 2) * abs(inner) ** k for k, c in enumerate(cq.den.coeffs))
        assert np.linalg.svd(cq.den(inner), compute_uv=False)[-1] <= 1e-11 * size
        assert np.min(np.abs(zs)) > 1.0 + DISK_MARGIN
    return True


class TestSteinCertificate:
    """The Stein certificate of `_central_quotient` against the zeros of
    det den: sound wherever it certifies, and silent where a zero crosses
    the circle."""

    @pytest.mark.parametrize(
        "label, coeffs", [pytest.param(label, c, id=label) for label, c in stein_draws()]
    )
    def test_certified_quotients_have_no_zero_on_the_closed_disk(self, label, coeffs):
        # every full-rank draw is certified, rho = 1 - 1e-9 too at n = 1
        cq = central_quotient(gamma_from_covariance(HermSeq(coeffs)))
        certified = assert_sound(cq)
        if not label.startswith("var1") or "1e-9" not in label:
            assert certified

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("rho", [0.5, 1.0 - 1e-6])
    def test_a_zero_crossing_the_circle_is_never_certified(self, n, rho):
        # AR(1) data with its predictor w = (rho, 0, ..) scaled by s: the
        # zero of det den, 1 / (s rho), crosses the circle as s grows.  No
        # den with a zero at |z| <= 1 + DISK_MARGIN is certified, and the
        # companion then refuses it
        seq = scalar_seq(*[rho**j for j in range(n + 1)])
        entry = _enter(toeplitz_matrix(seq, n), 1, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
        for gap in (1e-3, 1e-9, 2e-10, 5e-11, 0.0, -1e-9, -1e-3):
            s = 1.0 / (rho * (1.0 + gap))
            cq = caratheodory._central_quotient(seq.coeffs[0], entry.t, s * entry.w)
            z = cq.zeros[np.argmin(np.abs(cq.zeros))]
            if abs(z) <= 1.0 + DISK_MARGIN:
                assert cq._certified == -np.inf
                assert "not certified" in caratheodory._disk_cause(cq, DISK_MARGIN)
            # at n = 1, D is Sigma = 1 - (s rho)^2 alone, and delta about
            # 2 gap: a zero 2e-10 or more outside is certified
            certified = assert_sound(cq)
            if n == 1:
                assert certified == (gap >= 2e-10)


    def test_indefinite_toeplitz_is_never_certified(self):
        # C = (1, 2, -1): T_1 is indefinite, yet Sigma = 16/3 > 0 and the
        # Yule-Walker residual vanishes, while det den has a zero at
        # |z| = 0.47.  The Cholesky of T_1 fails, and so does the certificate
        t = toeplitz_matrix(scalar_seq(1.0, 2.0, -1.0), 2)
        w = np.linalg.solve(t[:-1, :-1], t[1:, :1]).reshape(2, 1, 1)
        assert caratheodory._stein_delta(t[:-1, :-1], w) == -np.inf
        cq = caratheodory._central_quotient(t[:1, :1], t, w)
        assert cq._certified == -np.inf
        assert "(|z| - 1 = -5.282e-01)" in caratheodory._disk_cause(cq, DISK_MARGIN)


@st.composite
def full_rank_draws(draw):
    """Full-rank data: VAR(1) with rho = 1 - 10^-k, k = 1..9, a
    trigonometric density or a random walk inside the balls."""
    kind = draw(st.sampled_from(["var1", "trig", "tpd"]))
    q, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "var1":
        return var1_coeffs(rng, q, 1.0 - 10.0 ** -draw(st.integers(1, 9)), n + 1)
    if kind == "trig":
        return trig_coeffs(rng, q, n + 1, draw(st.integers(n, n + 3)))
    return list(random_tpd_seq(rng, q, n).coeffs)


@settings(derandomize=True, database=None, deadline=None)
@given(full_rank_draws())
def test_stein_certificate_is_sound(coeffs):
    assert_sound(central_quotient(gamma_from_covariance(HermSeq(coeffs))))


class TestPdPolynomials:
    def test_scalar_half_fixture(self):
        # T_1 for (1, 1/2) inverts to [[4/3, -2/3], [-2/3, 4/3]] by hand
        a, b = pd_polynomials(scalar_seq(1.0, 0.5))
        assert np.allclose(a.coeffs[:, 0, 0], [4.0 / 3.0, -2.0 / 3.0], atol=1e-12)
        assert np.allclose(b.coeffs[:, 0, 0], [4.0 / 3.0, -2.0 / 3.0], atol=1e-12)

    def test_white_noise_fixture(self):
        a, b = pd_polynomials(scalar_seq(2.0))
        assert np.allclose(a.coeffs[:, 0, 0], [0.5], atol=1e-14)
        assert np.allclose(b.coeffs[:, 0, 0], [0.5], atol=1e-14)

    def test_inverse_blocks_against_numpy(self):
        from matspec import toeplitz_matrix

        seq = random_tpd_seq(RNG, 2, 2)
        a, b = pd_polynomials(seq)
        tinv = np.linalg.inv(toeplitz_matrix(seq, 2))
        for j in range(3):
            assert np.allclose(a.coeffs[j], tinv[2 * j : 2 * j + 2, :2], atol=1e-9)
            assert np.allclose(
                b.coeffs[j], tinv[4:, 2 * (2 - j) : 2 * (2 - j) + 2], atol=1e-9
            )

    def test_rejects_merely_tnd(self):
        with pytest.raises(ModelError):
            pd_polynomials(scalar_seq(1.0, 1.0))


class TestRadialAtomLimit:
    def test_mass_at_one(self):
        cq = ones_quotient()
        assert np.allclose(radial_atom_limit(cq, 1.0), [[1.0]], atol=1e-8)

    def test_no_mass_elsewhere(self):
        cq = ones_quotient()
        for u in (1j, -1.0, np.exp(2.2j)):
            assert np.allclose(radial_atom_limit(cq, u), 0.0, atol=1e-8)

    def test_atom_free_quotient(self):
        cq = central_quotient(gamma_from_covariance(random_tpd_seq(RNG, 2, 2)))
        assert np.allclose(radial_atom_limit(cq, 1.0), 0.0, atol=1e-7)

    def test_off_circle_rejected(self):
        with pytest.raises(InvalidInputError):
            radial_atom_limit(ones_quotient(), 0.9)

    def test_atomic_two_point_measure(self):
        coeffs, atoms = atomic_coeffs(RNG, 2, 4, n_atoms=2)
        cq = central_quotient(gamma_from_covariance(HermSeq(coeffs)))
        for u, w in atoms:
            got = radial_atom_limit(cq, u)
            assert np.allclose(got, w, atol=1e-6 * (1 + np.linalg.norm(w, 2)))

    def test_second_order_circle_pole_has_no_limit(self):
        # not a Caratheodory function: (1 - z)^-2 blows up too fast radially
        from matspec import CaratheodoryQuotient, MatPoly

        num = MatPoly(np.ones((1, 1, 1), dtype=complex))
        den = MatPoly(np.array([[[1.0]], [[-2.0]], [[1.0]]], dtype=complex))
        cq = CaratheodoryQuotient(num=num, den=den)
        with pytest.raises(NoLimitError):
            radial_atom_limit(cq, 1.0)
