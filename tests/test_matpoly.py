import numpy as np
import pytest

from matspec import MatPoly
from matspec.matpoly import MatPolyStack, det_poly, poly_trim
from matspec.errors import DimensionError, InvalidInputError

from _oracle import (
    DegenerateZeroError,
    adjugate,
    adjugate_poly,
    derivative,
    horner,
    matpoly_mul,
    pole_limit,
)

RNG = np.random.default_rng(31)


def rand_poly(q, deg):
    return MatPoly(RNG.normal(size=(deg + 1, q, q)) + 1j * RNG.normal(size=(deg + 1, q, q)))


class TestMatPoly:
    def test_horner_matches_direct_sum(self):
        p = rand_poly(2, 3)
        z = 0.3 - 0.7j
        direct = sum(p.coeffs[k] * z**k for k in range(4))
        assert np.allclose(p(z), direct, atol=1e-13)

    def test_stacked_evaluation(self):
        p = rand_poly(2, 2)
        zs = np.array([0.1, 1j, -0.5 + 0.2j])
        vals = p(zs)
        assert vals.shape == (3, 2, 2)
        for i, z in enumerate(zs):
            assert np.allclose(vals[i], p(z), atol=1e-13)

    def test_derivative_matches_difference_quotient(self):
        p = rand_poly(2, 4)
        z, h = 0.4 + 0.1j, 1e-7
        numeric = (p(z + h) - p(z - h)) / (2 * h)
        assert np.allclose(derivative(p)(z), numeric, atol=1e-6)

    def test_second_derivative_coefficients(self):
        p = MatPoly(np.array([[[1.0]], [[0.0]], [[0.0]], [[2.0]]], dtype=complex))
        d2 = derivative(p, 2)
        assert d2.degree == 1
        assert np.allclose(d2.coeffs[1], 12.0)

    def test_negative_derivative_order_is_refused(self):
        with pytest.raises(InvalidInputError, match="derivative order must be nonnegative"):
            derivative(rand_poly(2, 2), -1)

    def test_trim_drops_tiny_leading_blocks(self):
        c = np.zeros((3, 1, 1), dtype=complex)
        c[0, 0, 0] = 1.0
        c[2, 0, 0] = 1e-18
        assert MatPoly(c).trim().degree == 0

    def test_degree_of_zero_poly(self):
        assert MatPoly(np.zeros((1, 2, 2))).degree == 0


class TestInputChecks:
    @pytest.mark.parametrize("c", [[], np.ones((2, 2))], ids=["empty", "2-d"])
    def test_poly_trim_needs_a_nonempty_1d_array(self, c):
        with pytest.raises(DimensionError, match="nonempty 1-d"):
            poly_trim(c)

    @pytest.mark.parametrize(
        "shape", [(3,), (2, 3), (0, 2, 2), (2, 2, 3), (1, 1, 2, 2)],
        ids=["1-d", "non-square", "no-blocks", "non-square-blocks", "4-d"],
    )
    def test_matpoly_needs_square_blocks(self, shape):
        with pytest.raises(DimensionError, match=r"expected coefficients shaped \(d\+1, q, q\)"):
            MatPoly(np.ones(shape))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-inf-j"]
    )
    def test_matpoly_needs_finite_coefficients(self, bad):
        c = np.ones((2, 2, 2), dtype=complex)
        c[1, 0, 1] = bad
        with pytest.raises(InvalidInputError, match="non-finite coefficients"):
            MatPoly(c)

    @pytest.mark.parametrize("name", ["coeffs", "q", "degree"])
    def test_matpoly_refuses_assignment(self, name):
        p = rand_poly(2, 1)
        with pytest.raises(AttributeError, match="MatPoly is immutable"):
            setattr(p, name, None)
        assert p.q == 2 and p.coeffs.shape == (2, 2, 2)


class TestMatPolyStack:
    @pytest.mark.parametrize("seed", range(12))
    def test_one_pass_keeps_each_polynomials_bits(self, seed):
        # 50 draws per seed: one to three polynomials of one block size with
        # unequal degrees (the lower ones padded), at a scalar point, at the
        # origin and at arrays of points; each value equals the polynomial's
        # own Horner evaluation bit for bit
        rng = np.random.default_rng(seed)
        for draw in range(50):
            q, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            polys = []
            for deg in rng.integers(0, 9, size=k):
                c = rng.normal(size=(deg + 1, q, q)) + 1j * rng.normal(size=(deg + 1, q, q))
                if draw % 5 == 0:
                    # diagonal blocks: exact zeros off the diagonal
                    c = c * np.eye(q)
                polys.append(MatPoly(c))
            z = [complex(*rng.normal(size=2)), 0.0 + 0.0j,
                 rng.normal(size=int(rng.integers(1, 40))) * np.exp(1j * rng.uniform(0, 7)),
                 rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))][draw % 4]
            values = MatPolyStack(*polys)(z)
            assert len(values) == k
            for p, v in zip(polys, values):
                assert v.shape == np.shape(z) + (q, q)
                assert np.array_equal(v, p(z)) and np.array_equal(v, horner(p, z))


class TestDetAdjMul:
    def test_det_poly_matches_pointwise(self):
        p = rand_poly(3, 2)
        d = det_poly(p)
        for z in (0.0, 0.7, -0.3 + 0.4j, 1.1j):
            assert np.isclose(
                np.polynomial.polynomial.polyval(z, d),
                np.linalg.det(p(z)),
                atol=1e-9 * (1 + abs(np.linalg.det(p(z)))),
            )

    def test_det_poly_degree(self):
        # det of a q x q polynomial of degree d has degree at most q*d
        p = rand_poly(2, 3)
        assert len(det_poly(p)) - 1 <= 6

    def test_adjugate_poly_matches_pointwise(self):
        p = rand_poly(3, 2)
        adj = adjugate_poly(p)
        for z in (0.2, -0.9, 0.5j):
            assert np.allclose(adj(z), adjugate(p(z)), atol=1e-9)

    def test_adjugate_poly_scalar_case(self):
        p = rand_poly(1, 3)
        adj = adjugate_poly(p)
        assert adj.degree == 0
        assert np.allclose(adj(0.3), [[1.0]])

    def test_fundamental_identity_as_polys(self):
        p = rand_poly(2, 2)
        adj = adjugate_poly(p)
        prod = matpoly_mul(p, adj)
        d = det_poly(p)
        for z in (0.4, -0.2 + 0.3j):
            det_z = np.polynomial.polynomial.polyval(z, d)
            assert np.allclose(prod(z), det_z * np.eye(2), atol=1e-9 * (1 + abs(det_z)))

    def test_matpoly_mul_matches_convolution(self):
        a, b = rand_poly(2, 2), rand_poly(2, 3)
        prod = matpoly_mul(a, b)
        assert prod.degree <= 5
        expect = np.zeros((6, 2, 2), dtype=complex)
        for i in range(3):
            for j in range(4):
                expect[i + j] += a.coeffs[i] @ b.coeffs[j]
        for k in range(prod.degree + 1):
            assert np.allclose(prod.coeffs[k], expect[k], atol=1e-10)


class TestPoleLimit:
    def test_simple_pole_residue(self):
        # g/h with h = (z-1)(z-3), g constant: limit of (z-1) g/h at 1 is g/(-2)
        g = MatPoly(np.array([[[4.0]]], dtype=complex))
        h = np.polynomial.polynomial.polyfromroots([1.0, 3.0])
        val = pole_limit(g, h, 1.0, ell=1)
        assert np.allclose(val, [[-2.0]], atol=1e-10)

    def test_removable_point(self):
        # g has the same zero as h: plain value of the quotient
        h = np.polynomial.polynomial.polyfromroots([1.0])
        g = MatPoly(np.array([[[-2.0]], [[2.0]]], dtype=complex))  # 2(z - 1)
        val = pole_limit(g, h, 1.0, ell=0)
        assert np.allclose(val, [[2.0]], atol=1e-10)

    def test_double_zero(self):
        # h = (z-i)^2 (z-2), ell = 2
        w = 1j
        h = np.polynomial.polynomial.polyfromroots([w, w, 2.0])
        g = MatPoly(np.array([[[1.0, 2.0], [0.0, 1.0]]], dtype=complex))
        val = pole_limit(g, h, w, ell=2)
        assert np.allclose(val, g.coeffs[0] / (w - 2.0), atol=1e-9)

    def test_double_zero_partial_order(self):
        # numerator supplies one factor of (z-w); ell = 1 limit is finite
        w = np.exp(0.4j)
        h = np.polynomial.polynomial.polyfromroots([w, w, 2.0])
        r = np.array([[1.0, -1j], [0.5, 2.0]], dtype=complex)
        g = MatPoly(np.stack([-w * r, r]))  # (z - w) R
        val = pole_limit(g, h, w, ell=1)
        assert np.allclose(val, r / (w - 2.0), atol=1e-8)

    def test_numeric_cross_check(self):
        # compare against direct evaluation of (z-w)^ell g/h near w
        w = np.exp(1.1j)
        h = np.polynomial.polynomial.polyfromroots([w, 0.3, -2.0])
        g = rand_poly(2, 2)
        val = pole_limit(g, h, w, ell=1)
        z = w * (1 + 1e-7)
        approx = (z - w) * g(z) / np.polynomial.polynomial.polyval(z, h)
        assert np.allclose(val, approx, atol=1e-5 * (1 + np.linalg.norm(val)))

    def test_ell_exceeding_order_rejected(self):
        h = np.polynomial.polynomial.polyfromroots([1.0, 3.0])
        g = MatPoly(np.ones((1, 1, 1), dtype=complex))
        with pytest.raises(InvalidInputError):
            pole_limit(g, h, 1.0, ell=2)

    def test_zero_denominator_rejected(self):
        g = MatPoly(np.ones((1, 1, 1), dtype=complex))
        with pytest.raises(DegenerateZeroError):
            pole_limit(g, np.zeros(3, dtype=complex), 1.0, ell=1)
