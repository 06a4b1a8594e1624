"""Dense complex matrix primitives.

Everything operates on plain numpy arrays with complex128 entries.  Tolerances
are scale-relative throughout: thresholds are multiplied by ``1 + ||A||_2`` so
data of arbitrary magnitude behaves identically.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidInputError, ModelError

# Relative singular-value cutoff of pinv, the predictor solve and den's kernel.
DEFAULT_RANK_RTOL = 1e-10
# Default tolerance for nonnegativity / Hermitian-deviation checks.
DEFAULT_PSD_TOL = 1e-9


def as_cmatrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-d complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return m


def require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def spec_norm(a) -> float:
    """Spectral (operator 2-) norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def re_mat(a) -> np.ndarray:
    """Matrix real part (A + A*)/2."""
    m = np.asarray(a, dtype=complex)
    return 0.5 * (m + m.conj().T)


def pinv(a, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Parameters
    ----------
    a : array_like
        Complex matrix, any shape ``(m, n)``.
    rel_tol : float
        Singular values at or below ``rel_tol * sigma_max`` are treated as
        zero.  Must lie strictly between 0 and 1.

    Returns
    -------
    ndarray of shape ``(n, m)``.
    """
    m = as_cmatrix(a)
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInputError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    u, s, vh = _svd(m)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=complex)
    keep = s > rel_tol * s[0]
    if not np.any(keep):
        return np.zeros((m.shape[1], m.shape[0]), dtype=complex)
    uk = u[:, : s.size][:, keep]
    vk = vh[: s.size, :][keep, :]
    return (vk.conj().T * (1.0 / s[keep])) @ uk.conj().T


def _svd(m: np.ndarray):
    """numpy SVD whose convergence failure surfaces as a ModelError."""
    try:
        return np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ModelError(
            f"SVD of a {m.shape[0]}x{m.shape[1]} matrix did not converge"
        ) from exc


def is_unitary(a) -> bool:
    """Whether a* a = I within DEFAULT_PSD_TOL * (1 + ||a||)."""
    m = require_square(as_cmatrix(a))
    q = m.shape[0]
    scale = 1.0 + spec_norm(m)
    return spec_norm(m.conj().T @ m - np.eye(q)) <= DEFAULT_PSD_TOL * scale
