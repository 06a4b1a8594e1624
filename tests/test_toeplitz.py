import numpy as np
import pytest

from matspec import (
    Classification,
    HermSeq,
    ball_params,
    central_quotient,
    classify,
    conjugate_by_unitary,
    first_violation,
    gamma_from_covariance,
    toeplitz_matrix,
)
from matspec.errors import DimensionError, InvalidInputError, ModelError
from matspec.linalg import DEFAULT_RANK_RTOL
from matspec.toeplitz import _predictor

from _gen import (
    atomic_coeffs,
    direct_sum,
    random_psd,
    random_tpd_seq,
    random_unitary,
)
from _oracle import ball_membership, psd_sqrt, rank_drop

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
        w = _predictor(t, 1, DEFAULT_RANK_RTOL)[:, 0, 0]
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
        "coeffs",
        [
            random_tpd_seq(CASE_RNG, 3, 5).coeffs,
            atomic_coeffs(CASE_RNG, 2, 6, n_atoms=2)[0],
            direct_sum(atomic_coeffs(CASE_RNG, 1, 5, n_atoms=1)[0],
                       random_tpd_seq(CASE_RNG, 1, 4).coeffs),
            atomic_coeffs(CASE_RNG, 1, 3, n_atoms=2)[0] + [np.array([[3.0]])],
        ],
        ids=["tpd", "atomic", "direct-sum", "not-tnd"],
    )
    def test_matches_per_prefix_definition(self, coeffs):
        # the definition, one prefix at a time, with SVD norms throughout
        def oracle(seq, tol=1e-9):
            for k in range(len(seq)):
                t = toeplitz_matrix(seq, k)
                scale = 1.0 + np.linalg.norm(t, 2)
                if np.linalg.norm(t - t.conj().T, 2) > tol * scale:
                    return k
                if np.linalg.eigvalsh((t + t.conj().T) / 2)[0] < -tol * scale:
                    return k
            return None

        seq = HermSeq(coeffs)
        assert first_violation(seq) == oracle(seq)


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
