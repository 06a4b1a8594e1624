"""Matrix polynomials and the scalar-polynomial subroutines built on them.

Coefficients are stored lowest degree first.  Scalar polynomials are plain
1-d complex arrays and reuse ``numpy.polynomial.polynomial`` helpers (same
convention); matrix polynomials get a small dedicated class.

Determinants, adjugates and products of matrix polynomials are formed by
evaluation at roots of unity followed by an inverse FFT, which is exact up to
roundoff once the node count exceeds the target degree.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DegenerateZeroError,
    DimensionError,
    InvalidInputError,
    MultiplicityError,
)
from .linalg import _adjugate_stack

# Relative threshold for dropping numerically-zero leading coefficients.
TRIM_RTOL = 1e-12
# Roots with | |v| - 1 | <= ROOT_TOL count as unimodular.
DEFAULT_ROOT_TOL = 1e-7
# Roots closer than this merge into one location with summed multiplicity.
# wide enough to absorb the eps^(1/m) companion scatter of an m-fold root
# (about 1e-5 at m = 3) while staying far below any realistic atom spacing
DEFAULT_CLUSTER_RADIUS = 1e-4
# Relative threshold deciding whether a derivative value is zero.
DEFAULT_DERIV_TOL = 1e-7


def poly_trim(c, rel_tol: float = TRIM_RTOL) -> np.ndarray:
    """Drop trailing scalar coefficients below ``rel_tol * max|coeff|``."""
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError("expected a nonempty 1-d coefficient array")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("polynomial has non-finite coefficients")
    top = np.max(np.abs(arr))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(np.abs(arr) > rel_tol * top)[0]
    return arr[: keep[-1] + 1].copy()


def poly_eval(c, z):
    return npoly.polyval(z, np.asarray(c, dtype=complex))


def poly_derive(c, order: int = 1) -> np.ndarray:
    d = npoly.polyder(np.asarray(c, dtype=complex), order)
    return np.atleast_1d(d)


class MatPoly:
    """Matrix polynomial sum_k coeffs[k] z^k with q x q complex blocks."""

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1] != arr.shape[2]:
            raise DimensionError(
                f"expected coefficients shaped (d+1, q, q), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("polynomial has non-finite coefficients")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "q", arr.shape[1])

    def __setattr__(self, name, value):
        raise AttributeError("MatPoly is immutable")

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        """Horner evaluation; scalar z gives (q, q), array z gives (..., q, q)."""
        zs = np.asarray(z, dtype=complex)
        out = np.broadcast_to(self.coeffs[-1], zs.shape + (self.q, self.q)).copy()
        for k in range(self.degree - 1, -1, -1):
            out = out * zs[..., None, None] + self.coeffs[k]
        return out

    def derivative(self, order: int = 1) -> "MatPoly":
        if order < 0:
            raise InvalidInputError("derivative order must be nonnegative")
        arr = self.coeffs
        for _ in range(order):
            if arr.shape[0] == 1:
                arr = np.zeros((1, self.q, self.q), dtype=complex)
                break
            arr = arr[1:] * np.arange(1, arr.shape[0])[:, None, None]
        return MatPoly(arr)

    def trim(self, rel_tol: float = TRIM_RTOL) -> "MatPoly":
        mags = np.abs(self.coeffs).reshape(self.coeffs.shape[0], -1).max(axis=1)
        top = mags.max()
        if top == 0.0:
            return MatPoly(np.zeros((1, self.q, self.q), dtype=complex))
        keep = np.nonzero(mags > rel_tol * top)[0]
        return MatPoly(self.coeffs[: keep[-1] + 1])

    def __repr__(self) -> str:
        return f"MatPoly(q={self.q}, degree={self.degree})"


class UnimodularRoot(NamedTuple):
    point: complex
    multiplicity: int


def _pow2_nodes(min_count: int) -> np.ndarray:
    n = 1
    while n <= min_count:
        n *= 2
    return np.exp(-2j * np.pi * np.arange(n) / n)


def det_poly(p: MatPoly, rel_tol: float = TRIM_RTOL) -> np.ndarray:
    """Scalar coefficients of det p(z), by interpolation at roots of unity."""
    p = p.trim(rel_tol)
    target = p.q * p.degree
    if target == 0:
        return np.atleast_1d(np.linalg.det(p.coeffs[0]))
    nodes = _pow2_nodes(target)
    dets = np.linalg.det(p(nodes))
    coeffs = np.fft.ifft(dets)[: target + 1]
    return poly_trim(coeffs, rel_tol)


def adjugate_poly(p: MatPoly, rel_tol: float = TRIM_RTOL) -> MatPoly:
    """Matrix polynomial adj(p(z)); satisfies adj(p) p = det(p) I pointwise."""
    p = p.trim(rel_tol)
    if p.q == 1:
        return MatPoly(np.ones((1, 1, 1), dtype=complex))
    target = (p.q - 1) * p.degree
    if target == 0:
        return MatPoly(_adjugate_stack(p.coeffs[:1].copy()))
    nodes = _pow2_nodes(p.q * p.degree)
    adjs = _adjugate_stack(p(nodes))
    coeffs = np.fft.ifft(adjs, axis=0)[: target + 1]
    return MatPoly(coeffs).trim(rel_tol)


def matpoly_mul(a: MatPoly, b: MatPoly, rel_tol: float = TRIM_RTOL) -> MatPoly:
    """Product polynomial a(z) b(z) via interpolation."""
    if a.q != b.q:
        raise DimensionError(f"block sizes differ: {a.q} vs {b.q}")
    target = a.degree + b.degree
    if target == 0:
        return MatPoly(a.coeffs[0] @ b.coeffs[0])
    nodes = _pow2_nodes(target)
    vals = a(nodes) @ b(nodes)
    coeffs = np.fft.ifft(vals, axis=0)[: target + 1]
    return MatPoly(coeffs)


def _newton_polish(c: np.ndarray, z0: complex, guard: float) -> complex:
    """A few Newton steps on the scalar polynomial c from z0; bounded wander."""
    dc = poly_derive(c)
    z = z0
    for _ in range(12):
        dv = poly_eval(dc, z)
        if abs(dv) == 0.0:
            break
        step = poly_eval(c, z) / dv
        z_new = z - step
        if abs(z_new - z0) > guard:
            return z0
        z = z_new
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    return z


def _clusters(zs, radius: float) -> list[list[complex]]:
    """Roots near the circle, sorted by angle and chained into clusters by
    gaps of at most ``radius`` (the last cluster wraps onto the first)."""
    near = sorted(zs, key=lambda z: float(np.angle(z)) % (2.0 * np.pi))
    if not near:
        return []
    clusters: list[list[complex]] = [[near[0]]]
    for z in near[1:]:
        if abs(z - clusters[-1][-1]) <= radius:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    if len(clusters) > 1 and abs(clusters[0][0] - clusters[-1][-1]) <= radius:
        clusters[0] = clusters.pop() + clusters[0]
    return clusters


def unimodular_roots(
    coeffs,
    root_tol: float = DEFAULT_ROOT_TOL,
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
    deriv_tol: float = DEFAULT_DERIV_TOL,
) -> list[UnimodularRoot]:
    """Roots of a scalar polynomial on the unit circle, with multiplicities.

    Companion-matrix eigenvalues seed the search.  An m-fold root is
    scattered by roughly eps^(1/m) there (about 1e-5 for m = 3), so
    candidates are collected inside the generous window
    max(root_tol, cluster_radius) and merged into clusters whose size sets
    the multiplicity.  Each cluster mean (where the leading scatter term
    cancels) is Newton-polished on the (m-1)-th derivative; only then is the
    tight ``root_tol`` test applied, so off-circle roots caught by the wide
    window are dropped by their polished location, not their scattered one.
    Survivors are projected onto the circle and the derivative magnitudes
    |s^(k)(v)| are validated: numerically zero for k < m, nonzero at k = m.

    Returns locations sorted by angle in [0, 2pi).
    """
    c = poly_trim(coeffs)
    if c.size == 1 and c[0] == 0.0:
        raise InvalidInputError("the zero polynomial has no root structure")
    deg = c.size - 1
    if deg == 0:
        return []
    window = max(root_tol, cluster_radius)
    raw = np.roots(c[::-1])
    out = []
    for members in _clusters([z for z in raw if abs(abs(z) - 1.0) <= window],
                             cluster_radius):
        m = len(members)
        v = complex(np.mean(members))
        polished = _newton_polish(poly_derive(c, m - 1) if m > 1 else c, v,
                                  guard=10.0 * cluster_radius + 1e-8)
        if abs(abs(polished) - 1.0) > root_tol:
            continue
        v = polished / abs(polished)
        for k in range(m + 1):
            dk = poly_derive(c, k) if k else c
            thresh = deriv_tol * float(np.max(np.abs(dk)))
            val = abs(poly_eval(dk, v))
            if k < m and val > thresh:
                raise MultiplicityError(
                    f"derivative {k} does not vanish at {v} for multiplicity {m}",
                    root=v,
                    multiplicity=m,
                )
            if k == m and val <= thresh:
                raise MultiplicityError(
                    f"derivative {m} vanishes at {v}; multiplicity underestimated",
                    root=v,
                    multiplicity=m,
                )
        out.append(UnimodularRoot(point=v, multiplicity=m))
    out.sort(key=lambda r: float(np.angle(r.point)) % (2.0 * np.pi))
    return out


def _limit_known_multiplicity(
    g: MatPoly, h: np.ndarray, w: complex, m: int, ell: int
) -> np.ndarray:
    """lim (z-w)^ell g(z)/h(z) given that w is an m-fold zero of h."""
    hm = poly_eval(poly_derive(h, m) if m else h, w)
    scale = math.factorial(m) / math.factorial(m - ell)
    return (scale / hm) * g.derivative(m - ell)(w)


def pole_limit(
    g: MatPoly, h, w: complex, ell: int, deriv_tol: float = DEFAULT_DERIV_TOL
) -> np.ndarray:
    """Exact limit of (z - w)^ell * g(z)/h(z) as z -> w.

    ``h`` is a scalar polynomial with an m-fold zero at w (m = 0 allowed, the
    removable case).  Requires ell <= m; the limit equals

        m!/(m - ell)! * g^(m-ell)(w) / h^(m)(w),

    finite whenever the quotient's pole order at w is at most ell.
    """
    if ell < 0:
        raise InvalidInputError("ell must be nonnegative")
    hc = poly_trim(h)
    if hc.size == 1 and hc[0] == 0.0:
        raise DegenerateZeroError("denominator is the zero polynomial")
    m = None
    for k in range(hc.size):
        dk = poly_derive(hc, k) if k else hc
        if abs(poly_eval(dk, w)) > deriv_tol * float(np.max(np.abs(dk))):
            m = k
            break
    if m is None:
        raise DegenerateZeroError(
            f"all derivatives of the denominator vanish at {w}"
        )
    if ell > m:
        raise InvalidInputError(
            f"requested power {ell} exceeds the zero multiplicity {m} at {w}"
        )
    return _limit_known_multiplicity(g, hc, w, m, ell)
