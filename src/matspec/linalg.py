"""Dense complex matrix primitives.

Everything operates on plain numpy arrays with complex128 entries.  Tolerances
are scale-relative throughout: thresholds are multiplied by ``1 + ||A||_2`` so
data of arbitrary magnitude behaves identically.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidInputError, ModelError

# Relative singular-value cutoff of numerical ranks and the predictor's pseudoinverse.
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
    """Matrix real part (A + A*)/2, of one matrix or over a stack."""
    m = np.asarray(a, dtype=complex)
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


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
