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
    """Spectral (operator 2-) norm.

    The largest singular value from `np.linalg.svdvals`, bit for bit the
    value of ``np.linalg.norm(a, 2)`` at about half its call overhead; other
    shapes than a nonempty matrix keep ``np.linalg.norm``'s meaning.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.size == 0:
        return float(np.linalg.norm(m, 2))
    return float(np.linalg.svdvals(m)[0])


def _spec_norms(stack) -> np.ndarray:
    """Spectral norms of a (k, r, c) stack of nonempty matrices, shape (k,),
    from one `np.linalg.svdvals` (descending, so column 0 is the largest):
    bit for bit ``np.linalg.norm(stack, 2, axis=(1, 2))``."""
    return np.linalg.svdvals(stack)[..., 0]


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
    return _pinv_range(a, rel_tol)[0]


def _pinv_range(a, rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`pinv` of ``a`` with the singular triplets it keeps: (a', U_r, s_r),
    U_r the left singular vectors of the r singular values s_r above the
    cutoff, all from one SVD.  For Hermitian PSD ``a`` the kept part is
    U_r diag(s_r) U_r*."""
    m = as_cmatrix(a)
    _require_rel_tol(rel_tol)
    u, s, vh = _svd(m)
    keep = s > rel_tol * s.max(initial=0.0)
    if not np.any(keep):
        zero = np.zeros((m.shape[1], m.shape[0]), dtype=complex)
        return zero, u[:, :0], s[:0]
    uk = u[:, : s.size][:, keep]
    vk = vh[: s.size, :][keep, :]
    return (vk.conj().T * (1.0 / s[keep])) @ uk.conj().T, uk, s[keep]


def _require_rel_tol(rel_tol: float) -> None:
    """InvalidInputError unless the relative cutoff lies in (0, 1)."""
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInputError(f"rel_tol must lie in (0, 1), got {rel_tol}")


def _svd(m: np.ndarray):
    """numpy SVD whose convergence failure surfaces as a ModelError."""
    try:
        return np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ModelError(
            f"SVD of a {m.shape[0]}x{m.shape[1]} matrix did not converge"
        ) from exc


def _eig(m: np.ndarray, hermitian: bool = False):
    """numpy eig, or eigh of Hermitian ``m``, of one matrix or a stack,
    whose convergence failure surfaces as a ModelError."""
    try:
        return np.linalg.eigh(m) if hermitian else np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        size = "x".join(str(d) for d in m.shape)
        kind = "matrix" if m.ndim == 2 else "matrix stack"
        raise ModelError(
            f"{'eigh' if hermitian else 'eig'} of a {size} {kind} did not converge"
        ) from exc


def is_unitary(a) -> bool:
    """Whether a* a = I within DEFAULT_PSD_TOL * (1 + ||a||)."""
    m = require_square(as_cmatrix(a))
    q = m.shape[0]
    scale = 1.0 + spec_norm(m)
    return spec_norm(m.conj().T @ m - np.eye(q)) <= DEFAULT_PSD_TOL * scale
