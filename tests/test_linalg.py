import numpy as np
import pytest

from matspec import spec_norm
from matspec.errors import DimensionError, InvalidInputError
from matspec.linalg import _spec_norms, as_cmatrix, re_mat

from _gen import random_psd, random_unitary
from _oracle import adjugate, is_unitary, numerical_rank, pinv, psd_sqrt

RNG = np.random.default_rng(7)


def rand_c(m, n):
    return RNG.normal(size=(m, n)) + 1j * RNG.normal(size=(m, n))


def penrose_ok(a, p, tol=1e-10):
    scale = 1.0 + np.linalg.norm(a, 2)
    return (
        np.linalg.norm(a @ p @ a - a, 2) <= tol * scale
        and np.linalg.norm(p @ a @ p - p, 2) <= tol * scale
        and np.linalg.norm((a @ p).conj().T - a @ p, 2) <= tol * scale
        and np.linalg.norm((p @ a).conj().T - p @ a, 2) <= tol * scale
    )


class TestAsCmatrix:
    def test_coerces_real_input(self):
        m = as_cmatrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m.shape == (2, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            as_cmatrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            as_cmatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(InvalidInputError):
            as_cmatrix([[np.inf]])


class TestPinv:
    def test_ones_matrix(self):
        # rank one: pinv of the all-ones 2x2 is the same matrix over 4
        a = np.ones((2, 2), dtype=complex)
        p = pinv(a)
        assert np.allclose(p, a / 4.0, atol=1e-12)
        assert penrose_ok(a, p)

    def test_penrose_square(self):
        for _ in range(5):
            a = rand_c(4, 4)
            assert penrose_ok(a, pinv(a))

    def test_penrose_rectangular(self):
        a = rand_c(3, 5)
        assert penrose_ok(a, pinv(a))
        a = rand_c(5, 3)
        assert penrose_ok(a, pinv(a))

    def test_penrose_singular(self):
        u = rand_c(4, 2)
        a = u @ u.conj().T
        assert penrose_ok(a, pinv(a))

    def test_involution(self):
        a = rand_c(3, 4)
        assert np.allclose(pinv(pinv(a)), a, atol=1e-10)

    def test_unitary_covariance(self):
        a = rand_c(3, 3)
        u = random_unitary(RNG, 3)
        v = random_unitary(RNG, 3)
        lhs = pinv(v @ a @ u)
        rhs = u.conj().T @ pinv(a) @ v.conj().T
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_rank_cutoff_drops_tiny_singular_values(self):
        a = np.diag([1.0, 1e-14]).astype(complex)
        p = pinv(a)
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_matrix(self):
        assert np.allclose(pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_rel_tol_validation(self):
        a = np.eye(2)
        with pytest.raises(InvalidInputError):
            pinv(a, rel_tol=0.0)
        with pytest.raises(InvalidInputError):
            pinv(a, rel_tol=1.0)


class TestAdjugate:
    def test_one_by_one(self):
        assert np.allclose(adjugate(np.array([[5.0 + 1j]])), [[1.0]])

    def test_two_by_two_closed_form(self):
        a = np.array([[1.0, 2.0], [3.0 + 1j, 4.0]], dtype=complex)
        adj = adjugate(a)
        expect = np.array([[4.0, -2.0], [-(3.0 + 1j), 1.0]])
        assert np.allclose(adj, expect, atol=1e-13)

    def test_fundamental_identity(self):
        for n in (2, 3, 4):
            a = rand_c(n, n)
            d = np.linalg.det(a)
            assert np.allclose(adjugate(a) @ a, d * np.eye(n), atol=1e-9 * (1 + abs(d)))
            assert np.allclose(a @ adjugate(a), d * np.eye(n), atol=1e-9 * (1 + abs(d)))

    def test_singular_matrix_identity(self):
        u = rand_c(3, 1)
        a = u @ u.conj().T
        assert np.allclose(adjugate(a) @ a, np.zeros((3, 3)), atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            adjugate(np.ones((2, 3)))


class TestParts:
    def test_parts_hermitian(self):
        # re A is Hermitian and the rest, i im A, skew-Hermitian
        a = rand_c(3, 3)
        r = re_mat(a)
        assert np.allclose(r, r.conj().T, atol=1e-14)
        assert np.allclose(a - r, -(a - r).conj().T, atol=1e-14)


class TestSpecNorm:
    def test_stacked_norm_is_bitwise_per_matrix(self):
        # the comparisons in measure and central take one stacked svdvals
        # where they took spec_norm per matrix; spec_norm and the stack read
        # the largest singular value, np.linalg.norm's 2-norm bit for bit
        stack = RNG.normal(size=(16, 3, 3)) + 1j * RNG.normal(size=(16, 3, 3))
        stacked = np.linalg.norm(stack, 2, axis=(1, 2))
        assert stacked.tolist() == [spec_norm(m) for m in stack]
        assert _spec_norms(stack).tolist() == stacked.tolist()
        wide = RNG.normal(size=(4, 2, 5))
        assert _spec_norms(wide).tolist() == np.linalg.norm(wide, 2, axis=(1, 2)).tolist()

    @pytest.mark.parametrize("a", [np.zeros((0, 0)), np.arange(3.0), np.zeros((2, 2))])
    def test_other_shapes_keep_the_norm(self, a):
        # an empty matrix and a vector keep np.linalg.norm's meaning
        assert spec_norm(a) == np.linalg.norm(a, 2)


class TestPsdPredicates:
    def test_psd_sqrt_squares_back(self):
        a = random_psd(RNG, 4)
        r = psd_sqrt(a)
        assert np.allclose(r @ r, a, atol=1e-10 * (1 + spec_norm(a)))
        # Hermitian and PSD within 1e-9 (1 + ||r||)
        tol = 1e-9 * (1.0 + spec_norm(r))
        assert spec_norm(r - r.conj().T) <= tol
        assert np.linalg.eigvalsh(re_mat(r))[0] >= -tol

    def test_psd_sqrt_of_zero(self):
        assert np.allclose(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))


class TestRankAndUnitary:
    def test_numerical_rank(self):
        u = rand_c(4, 2)
        assert numerical_rank(u @ u.conj().T) == 2
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.eye(5)) == 5

    def test_is_unitary(self):
        assert is_unitary(random_unitary(RNG, 3))
        assert not is_unitary(2.0 * np.eye(2))
