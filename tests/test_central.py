import numpy as np
import pytest

from matspec import (
    Classification,
    GammaSeq,
    HermSeq,
    NOT_CENTRAL,
    ar_spectrum,
    ball_params,
    caratheodory_check,
    central_extend,
    central_measure,
    central_order,
    central_quotient,
    classify,
    covariance_from_gamma,
    gamma_from_covariance,
    spec_norm,
    toeplitz_matrix,
)
from matspec.errors import InvalidInputError, ModelError
from matspec.linalg import DEFAULT_RANK_RTOL
from matspec.toeplitz import _predictor

from _gen import (
    atomic_coeffs,
    jittered_atomic_coeffs,
    mixed_coeffs,
    random_tpd_seq,
    random_unitary,
    var1_coeffs,
)
from _oracle import conjugate_by_unitary, numerical_rank, rank_drop

RNG = np.random.default_rng(23)


def scalar_seq(*vals):
    return HermSeq([np.array([[v]], dtype=complex) for v in vals])


class TestGammaConversion:
    def test_forward(self):
        g = gamma_from_covariance(scalar_seq(1.0, 0.5))
        assert isinstance(g, GammaSeq)
        assert np.allclose(g.coeff(0), 1.0)
        assert np.allclose(g.coeff(1), 1.0)

    def test_round_trip(self):
        seq = random_tpd_seq(RNG, 2, 3)
        back = covariance_from_gamma(gamma_from_covariance(seq))
        for j in range(4):
            assert np.allclose(back.coeff(j), seq.coeff(j), atol=1e-14)

    def test_inverse_takes_hermitian_part_of_head(self):
        g = GammaSeq([np.array([[1.0 + 2.0j]]), np.array([[0.2]])])
        seq = covariance_from_gamma(g)
        assert np.allclose(seq.coeff(0), 1.0)

    def test_gamma_of_tnd_passes_caratheodory(self):
        g = gamma_from_covariance(random_tpd_seq(RNG, 2, 3))
        assert caratheodory_check(g)


class TestCentralExtend:
    def test_ones_extends_to_ones(self):
        ext = central_extend(scalar_seq(1.0, 1.0), 7)
        for j in range(7):
            assert np.allclose(ext.coeff(j), 1.0, atol=1e-12)

    def test_white_noise_extends_to_zero(self):
        ext = central_extend(scalar_seq(1.0), 5)
        for j in range(1, 5):
            assert np.allclose(ext.coeff(j), 0.0, atol=1e-14)

    @pytest.mark.parametrize("rank_rtol", [0.0, 1.0])
    def test_rank_cutoff_outside_unit_interval_rejected(self, rank_rtol):
        # full-rank data never reaches the pseudoinverse, whose check this
        # once was; the entry pass checks the cutoff before its scan, so
        # data that is not TND (C = [1, 2]) raises the same input error
        seq = random_tpd_seq(np.random.default_rng(2), 2, 3)
        bad = HermSeq([[[1.0]], [[2.0]]])
        for data in (seq, bad):
            calls = [
                lambda: central_extend(data, 6, rank_rtol=rank_rtol),
                lambda: central_measure(data, rank_rtol=rank_rtol),
                lambda: central_quotient(gamma_from_covariance(data), rank_rtol=rank_rtol),
                lambda: ar_spectrum(data, 1, rank_rtol=rank_rtol),
            ]
            for call in calls:
                with pytest.raises(InvalidInputError, match="rel_tol"):
                    call()

    def test_constant_rotation(self):
        # C_j = u^-j C_0 forces every later coefficient onto the same orbit
        u = np.exp(1j * 0.7)
        ext = central_extend(scalar_seq(1.0).append(np.array([[1 / u]])), 6)
        for j in range(6):
            assert np.allclose(ext.coeff(j), u ** (-j), atol=1e-11)

    def test_preserves_given_prefix(self):
        seq = random_tpd_seq(RNG, 2, 2)
        ext = central_extend(seq, 5)
        for j in range(3):
            assert np.allclose(ext.coeff(j), seq.coeff(j), atol=0.0)

    def test_idempotent(self):
        seq = random_tpd_seq(RNG, 2, 2)
        once = central_extend(seq, 6)
        again = central_extend(once.prefix(4), 6)
        assert np.allclose(again.coeff(5), once.coeff(5), atol=1e-11)

    def test_extension_stays_tnd(self):
        seq = random_tpd_seq(RNG, 3, 2)
        ext = central_extend(seq, 6)
        assert classify(ext) is not Classification.NOT_TND

    def test_tpd_extension_stays_tpd(self):
        seq = random_tpd_seq(RNG, 2, 2)
        assert classify(central_extend(seq, 6)) is Classification.TPD

    def test_rank_plateau_when_degenerate(self):
        # once the semiradii vanish the Toeplitz rank freezes
        seq = scalar_seq(1.0, 1.0)
        ext = central_extend(seq, 6)
        for n in range(1, 6):
            t = toeplitz_matrix(ext.prefix(n + 1), n)
            assert int(np.sum(np.linalg.eigvalsh(t) > 1e-9)) == 1
        assert rank_drop(ext.prefix(3), 2)

    def test_unitary_equivariance(self):
        seq = random_tpd_seq(RNG, 2, 2)
        u = random_unitary(RNG, 2)
        a = central_extend(conjugate_by_unitary(seq, u), 6)
        b = conjugate_by_unitary(central_extend(seq, 6), u)
        for j in range(6):
            assert np.allclose(a.coeff(j), b.coeff(j), atol=1e-10)

    def test_gamma_input_gives_gamma_output(self):
        g = gamma_from_covariance(scalar_seq(1.0, 0.5))
        ext = central_extend(g, 4)
        assert isinstance(ext, GammaSeq)
        cov_ext = central_extend(scalar_seq(1.0, 0.5), 4)
        assert np.allclose(ext.coeff(3), 2.0 * cov_ext.coeff(3), atol=1e-12)

    def test_rejects_non_tnd(self):
        with pytest.raises(ModelError):
            central_extend(scalar_seq(1.0, 2.0), 4)

    def test_rejects_shrinking(self):
        with pytest.raises(InvalidInputError):
            central_extend(scalar_seq(1.0, 0.5), 0)


class TestCentralOrder:
    def test_white_noise_is_order_zero(self):
        assert central_order(scalar_seq(1.0, 0.0, 0.0)) == 0

    def test_full_order(self):
        seq = random_tpd_seq(RNG, 2, 3)
        ext = central_extend(seq, 6)
        assert central_order(ext) == 3

    def test_not_central_when_tail_off_center(self):
        assert central_order(scalar_seq(1.0, 1.0, 0.5)) is NOT_CENTRAL

    def test_order_counts_last_mismatch(self):
        # tail (0, 0.5, ...) where 0.5 is the center of its ball at step 2
        seq = scalar_seq(1.0, 0.5)
        ext = central_extend(seq, 4)
        assert central_order(ext) == 1

    def test_constant_one_sequence(self):
        assert central_order(scalar_seq(1.0, 1.0, 1.0, 1.0)) == 1

    def test_interior_breach_raises(self):
        with pytest.raises(ModelError) as exc:
            central_order(scalar_seq(1.0, 2.0, 0.5))
        assert "T_1" in str(exc.value)

    def test_length_one_is_order_zero(self):
        assert central_order(scalar_seq(3.0)) == 0

    def test_matrix_case(self):
        seq = random_tpd_seq(RNG, 2, 2)
        ext = central_extend(seq, 5)
        assert central_order(ext) == 2


class TestCentralExtendAgainstBalls:
    def test_each_new_coefficient_is_ball_center(self):
        seq = random_tpd_seq(RNG, 2, 1)
        ext = central_extend(seq, 5)
        for n in range(2, 5):
            ball = ball_params(ext.prefix(n), n - 1)
            assert np.allclose(ext.coeff(n), ball.center, atol=1e-12 * (1 + spec_norm(ball.center)))

    @pytest.mark.parametrize("kind", ["tpd", "atomic", "mixed", "rank_drop"])
    def test_matches_ball_centre_chain(self, kind):
        # appending one ball centre per coefficient is the reference for the
        # single-predictor recursion
        rng = np.random.default_rng(31)
        seq = {
            "tpd": lambda: random_tpd_seq(rng, 2, 3),
            "atomic": lambda: HermSeq(atomic_coeffs(rng, 2, 5, 2)[0]),
            "mixed": lambda: HermSeq(mixed_coeffs(rng, 2, 4)[0]),
            "rank_drop": lambda: scalar_seq(1.0, 1.0),
        }[kind]()
        ext = central_extend(seq, 3 * len(seq))
        chain = seq
        while len(chain) < len(ext):
            chain = chain.append(ball_params(chain, len(chain) - 1).center)
        tol = 1e-11 * (1.0 + spec_norm(seq.coeff(0)))
        for j in range(len(ext)):
            assert spec_norm(ext.coeff(j) - chain.coeff(j)) <= tol

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", ["var1_1-1e-3", "var1_1-1e-5", "atomic"])
    def test_ball_centre_is_the_next_coefficient(self, kind, seed):
        # the ball's centre is read off the refined predictor the central
        # extension continues with, so the chain of centres is the
        # extension to roundoff: on the near-unit-root VAR(1) draws an
        # unrefined pseudoinverse centre missed it by up to 3.6e-10 ||C_0||.
        # Two rank-2 atoms with q = 2 make T_n singular from n = 2 on.
        rng = np.random.default_rng(seed)
        coeffs = {
            "var1_1-1e-3": lambda: var1_coeffs(rng, 2, 1.0 - 1e-3, 6),
            "var1_1-1e-5": lambda: var1_coeffs(rng, 2, 1.0 - 1e-5, 6),
            "atomic": lambda: atomic_coeffs(rng, 2, 6, 2)[0],
        }[kind]()
        seq = HermSeq(coeffs)
        tol = 1e-14 * spec_norm(seq.coeff(0))
        for n in range(len(seq)):
            want = central_extend(seq.prefix(n + 1), n + 2).coeff(n + 1)
            assert spec_norm(ball_params(seq, n).center - want) <= tol


class TestCentralExtendClosedForm:
    def test_near_unit_root_var1(self):
        # VAR(1) with spectral radius 1 - 1e-5: C_j = A^j Sigma is its own
        # central extension from any prefix
        want = var1_coeffs(np.random.default_rng(1), 2, 1.0 - 1e-5, 24)
        ext = central_extend(HermSeq(want[:12]), 24)
        tol = 1e-8 * spec_norm(want[0])
        for j in range(24):
            assert spec_norm(ext.coeff(j) - want[j]) <= tol


class TestPredictorResidual:
    """The central predictor w solves the Yule-Walker system T_{n-1} w = Y_n
    to roundoff, ||T w - Y|| <= c eps ||T|| ||w||, on ill-conditioned T.  A
    single SVD pseudoinverse leaves a residual of about eps cond(T) instead
    (3e3..5e4 times eps ||T|| ||w|| on these inputs), and the quotient then
    misses the data by as much.  Full-rank T_n takes one LU solve, singular
    T_n the refined SVD; the VAR(1) case runs the first, the atomic pair the
    second."""

    CASES = {
        "var1_rho_1-1e-4": lambda rng: var1_coeffs(rng, 2, 1.0 - 1e-4, 6),
        "q1_pair_1e-3": lambda rng: jittered_atomic_coeffs(rng, 1, 9, 4, 1, 1e-3)[0],
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_yule_walker_residual_at_roundoff(self, case, seed):
        seq = HermSeq(self.CASES[case](np.random.default_rng(seed)))
        n, q = len(seq) - 1, seq.q
        tn = toeplitz_matrix(seq, n)
        full_rank = numerical_rank(tn) == len(tn)
        assert full_rank == case.startswith("var1")
        w = _predictor(tn, q, DEFAULT_RANK_RTOL, full_rank)[0].reshape(n * q, q)
        t = tn[:-q, :-q]
        resid = spec_norm(t @ w - tn[q:, :q])
        assert resid <= 10.0 * np.finfo(float).eps * spec_norm(t) * spec_norm(w)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_lu_route_matches_the_svd_oracle(self, q):
        # full-rank draws, n = 1..12: the LU solve and the refined SVD
        # pseudoinverse agree within the conditioning of T_{n-1}, and both
        # leave a Yule-Walker residual at roundoff (0.58 eps cond(T) ||w||
        # and 1.02 eps ||T|| ||w|| at worst over 800 such draws)
        eps = np.finfo(float).eps
        for seed in range(30):
            rng = np.random.default_rng(1000 * q + seed)
            n = int(rng.integers(1, 13))
            if seed % 3 == 0:
                seq = random_tpd_seq(rng, q, n)
            elif seed % 3 == 1:
                rho = (0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-5)[seed % 4]
                seq = HermSeq(var1_coeffs(rng, q, rho, n + 1))
            else:
                seq = HermSeq(mixed_coeffs(rng, q, n + 1)[0])
            tn = toeplitz_matrix(seq, n)
            assert numerical_rank(tn) == len(tn)
            t, y = tn[:-q, :-q], tn[q:, :q]
            lu = _predictor(tn, q, DEFAULT_RANK_RTOL, True)[0].reshape(n * q, q)
            svd = _predictor(tn, q, DEFAULT_RANK_RTOL, False)[0].reshape(n * q, q)
            lam = np.linalg.eigvalsh(t)
            scale = spec_norm(svd)
            assert spec_norm(lu - svd) <= 10.0 * eps * (lam[-1] / lam[0]) * scale
            for w in (lu, svd):
                resid = spec_norm(t @ w - y)
                assert resid <= 10.0 * eps * spec_norm(t) * spec_norm(w)
