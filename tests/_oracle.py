"""Determinant/adjugate oracles for the tests.

The library takes atom weights from den's kernel vectors; these helpers
compute the same residues by the independent scalar-determinant route,
lim (z - v) num(z) adj(den(z)) / det den(z), so tests can compare the two.
"""

import numpy as np

from matspec.errors import DimensionError
from matspec.linalg import as_cmatrix, require_square
from matspec.matpoly import MatPoly, _pow2_nodes


def adjugate(a) -> np.ndarray:
    """Adjugate (transposed cofactor matrix); adj(A) @ A = det(A) * I.

    For 1x1 input the adjugate is [[1]].  Works for singular matrices, which
    is what the determinant identity is needed for.
    """
    m = require_square(as_cmatrix(a))
    return _adjugate_stack(m[None, :, :])[0]


def _adjugate_stack(ms: np.ndarray) -> np.ndarray:
    """Adjugates of a stack shaped (N, q, q), computed via minors."""
    n, q, _ = ms.shape
    if q == 1:
        return np.ones((n, 1, 1), dtype=complex)
    out = np.empty_like(ms)
    for i in range(q):
        rows = [r for r in range(q) if r != i]
        for j in range(q):
            cols = [c for c in range(q) if c != j]
            minor = ms[:, rows, :][:, :, cols]
            # adj[j, i] = (-1)^(i+j) * det(minor of row i, col j)
            out[:, j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return out


def adjugate_poly(p: MatPoly) -> MatPoly:
    """Matrix polynomial adj(p(z)); satisfies adj(p) p = det(p) I pointwise."""
    p = p.trim()
    if p.q == 1:
        return MatPoly(np.ones((1, 1, 1), dtype=complex))
    target = (p.q - 1) * p.degree
    if target == 0:
        return MatPoly(_adjugate_stack(p.coeffs[:1].copy()))
    nodes = _pow2_nodes(p.q * p.degree)
    adjs = _adjugate_stack(p(nodes))
    coeffs = np.fft.ifft(adjs, axis=0)[: target + 1]
    return MatPoly(coeffs).trim()


def matpoly_mul(a: MatPoly, b: MatPoly) -> MatPoly:
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
