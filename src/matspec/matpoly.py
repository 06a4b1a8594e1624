"""Matrix polynomials and the scalar-polynomial subroutines built on them.

Coefficients are stored lowest degree first.  Scalar polynomials are plain
1-d complex arrays (the ``numpy.polynomial.polynomial`` convention); matrix
polynomials get a small dedicated class.

The determinant of a matrix polynomial is formed by evaluation at roots of
unity followed by an inverse FFT, which is exact up to roundoff once the node
count exceeds its degree.  No adjugates or products of matrix polynomials
are formed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidInputError

# Relative threshold for dropping numerically-zero leading coefficients.
TRIM_RTOL = 1e-12


def poly_trim(c) -> np.ndarray:
    """Drop trailing scalar coefficients below ``TRIM_RTOL * max|coeff|``."""
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError("expected a nonempty 1-d coefficient array")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("polynomial has non-finite coefficients")
    top = np.max(np.abs(arr))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(np.abs(arr) > TRIM_RTOL * top)[0]
    return arr[: keep[-1] + 1].copy()


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
        zz = zs[..., None, None]
        out = np.broadcast_to(self.coeffs[-1], zs.shape + (self.q, self.q)).copy()
        for k in range(self.degree - 1, -1, -1):
            # one temporary per step; an in-place multiply can change the
            # last bit on one-element arrays
            out = out * zz
            out += self.coeffs[k]
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

    def trim(self) -> "MatPoly":
        mags = np.abs(self.coeffs).reshape(self.coeffs.shape[0], -1).max(axis=1)
        top = mags.max()
        if top == 0.0:
            return MatPoly(np.zeros((1, self.q, self.q), dtype=complex))
        keep = np.nonzero(mags > TRIM_RTOL * top)[0]
        return MatPoly(self.coeffs[: keep[-1] + 1])

    def __repr__(self) -> str:
        return f"MatPoly(q={self.q}, degree={self.degree})"


def _pow2_nodes(min_count: int) -> np.ndarray:
    n = 1
    while n <= min_count:
        n *= 2
    return np.exp(-2j * np.pi * np.arange(n) / n)


def det_poly(p: MatPoly) -> np.ndarray:
    """Scalar coefficients of det p(z), by interpolation at roots of unity."""
    p = p.trim()
    target = p.q * p.degree
    if target == 0:
        return np.atleast_1d(np.linalg.det(p.coeffs[0]))
    nodes = _pow2_nodes(target)
    dets = np.linalg.det(p(nodes))
    coeffs = np.fft.ifft(dets)[: target + 1]
    return poly_trim(coeffs)

