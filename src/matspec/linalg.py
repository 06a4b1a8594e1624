"""Dense complex matrix primitives.

Everything operates on plain numpy arrays with complex128 entries.  Tolerances
are scale-relative throughout: thresholds are multiplied by ``1 + ||A||_2`` so
data of arbitrary magnitude behaves identically.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidInputError, ModelError

# Relative singular-value cutoff shared by pinv and numerical_rank.
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


def im_mat(a) -> np.ndarray:
    """Matrix imaginary part (A - A*)/(2i); satisfies A = re + i*im exactly."""
    m = np.asarray(a, dtype=complex)
    return (m - m.conj().T) / 2j


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


def _svd(m: np.ndarray, compute_uv: bool = True):
    """numpy SVD whose convergence failure surfaces as a ModelError."""
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ModelError(
            f"SVD of a {m.shape[0]}x{m.shape[1]} matrix did not converge"
        ) from exc


def numerical_rank(a, rel_tol: float = DEFAULT_RANK_RTOL) -> int:
    """Number of singular values above ``rel_tol * sigma_max``."""
    m = as_cmatrix(a)
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInputError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    s = _svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def is_nonneg_hermitian(a, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Whether ``a`` is Hermitian and positive semidefinite within tolerance.

    Both the Hermitian deviation ``||a - a*||_2`` and the most negative
    eigenvalue of the Hermitian part are compared against
    ``tol * (1 + ||a||_2)``.
    """
    m = require_square(as_cmatrix(a))
    scale = 1.0 + spec_norm(m)
    if spec_norm(m - m.conj().T) > tol * scale:
        return False
    return float(np.linalg.eigvalsh(re_mat(m))[0]) >= -tol * scale


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues clip to 0."""
    m = require_square(as_cmatrix(a))
    w, v = np.linalg.eigh(re_mat(m))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def is_unitary(a, tol: float = DEFAULT_PSD_TOL) -> bool:
    m = require_square(as_cmatrix(a))
    q = m.shape[0]
    scale = 1.0 + spec_norm(m)
    return spec_norm(m.conj().T @ m - np.eye(q)) <= tol * scale
