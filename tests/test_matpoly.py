import numpy as np
import pytest

from matspec import MatPoly
from matspec.matpoly import det_poly
from matspec.errors import InvalidInputError

from _oracle import DegenerateZeroError, adjugate, adjugate_poly, matpoly_mul, pole_limit

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
        assert np.allclose(p.derivative()(z), numeric, atol=1e-6)

    def test_second_derivative_coefficients(self):
        p = MatPoly(np.array([[[1.0]], [[0.0]], [[0.0]], [[2.0]]], dtype=complex))
        d2 = p.derivative(2)
        assert d2.degree == 1
        assert np.allclose(d2.coeffs[1], 12.0)

    def test_trim_drops_tiny_leading_blocks(self):
        c = np.zeros((3, 1, 1), dtype=complex)
        c[0, 0, 0] = 1.0
        c[2, 0, 0] = 1e-18
        assert MatPoly(c).trim().degree == 0

    def test_degree_of_zero_poly(self):
        assert MatPoly(np.zeros((1, 2, 2))).degree == 0


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
