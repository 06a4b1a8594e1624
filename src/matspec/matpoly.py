"""Matrix polynomials.

Coefficients are stored lowest degree first, as q x q complex blocks.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidInputError

# Relative threshold for dropping numerically-zero leading coefficients.
TRIM_RTOL = 1e-12


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
        return _horner(self.coeffs, z)

    def trim(self) -> "MatPoly":
        mags = np.abs(self.coeffs).reshape(self.coeffs.shape[0], -1).max(axis=1)
        top = mags.max()
        if top == 0.0:
            return MatPoly(np.zeros((1, self.q, self.q), dtype=complex))
        keep = np.nonzero(mags > TRIM_RTOL * top)[0]
        return MatPoly(self.coeffs[: keep[-1] + 1])

    def __repr__(self) -> str:
        return f"MatPoly(q={self.q}, degree={self.degree})"


class MatPolyStack:
    """Several matrix polynomials of one block size, evaluated at the same
    points by one Horner pass over their row-stacked coefficients.

    The coefficients are stacked as (d + 1, k q, q), d the largest degree,
    a lower degree padded with zero leading coefficients.  Each Horner step
    is the elementwise ``out * z + c`` of `MatPoly.__call__` on k times the
    rows, so every value equals that polynomial's own evaluation entry for
    entry (a padded step can only flip the sign of an exact zero).
    """

    __slots__ = ("coeffs", "q")

    def __init__(self, *polys: MatPoly):
        q = polys[0].q
        top = max(p.degree for p in polys)
        coeffs = np.zeros((top + 1, len(polys) * q, q), dtype=complex)
        for i, p in enumerate(polys):
            coeffs[: p.degree + 1, i * q : (i + 1) * q] = p.coeffs
        self.coeffs, self.q = coeffs, q

    def __call__(self, z) -> tuple[np.ndarray, ...]:
        """The value of each polynomial at z, in order: (q, q) each for
        scalar z, (..., q, q) for array z."""
        values = _horner(self.coeffs, z)
        q = self.q
        return tuple(values[..., i : i + q, :] for i in range(0, values.shape[-2], q))


def _horner(coeffs: np.ndarray, z) -> np.ndarray:
    """Horner evaluation of the coefficient blocks ``coeffs`` (d + 1, r, c),
    lowest degree first, at z; shape z.shape + (r, c)."""
    zs = np.asarray(z, dtype=complex)
    zz = zs[..., None, None]
    out = np.broadcast_to(coeffs[-1], zs.shape + coeffs.shape[1:]).copy()
    for k in range(len(coeffs) - 2, -1, -1):
        # one temporary per step; an in-place multiply can change the last
        # bit on one-element arrays
        out = out * zz
        out += coeffs[k]
    return out
