"""Block Toeplitz structure of finite matrix covariance sequences.

A sequence C_0, ..., C_n of complex q x q matrices is stored one-sided; the
negative-index coefficients are implied by C_{-j} = C_j*.  The block Toeplitz
matrix T_n = [C_{j-k}]_{j,k=0..n} is then Hermitian whenever C_0 is, and the
sequence is called Toeplitz-nonnegative-definite (TND) when every T_k is
nonnegative Hermitian, Toeplitz-positive-definite (TPD) when every T_k is
positive definite.

Given a TND prefix C_0..C_n, the admissible next coefficients form a matrix
ball { M + sqrt(L) K sqrt(R) : ||K|| <= 1 } whose parameters are rational in
the data; `ball_params` computes them, its centre from the same refined
predictor the central extension continues with.

`toeplitz_matrix` is the only code that lays out the blocks C_{j-k}.  Each
entry point builds T_n once; the private helpers take it and read slices:
T_k = T_n[:(k+1)q, :(k+1)q], Y_n = [C_1; ...; C_n] = T_n[q:, :q] and
Z_n = [C_n, ..., C_1] = T_n[-q:, :-q].

Where a margin or the first bad index is asked for, nonnegativity of
T_0..T_n is decided by one `eigvalsh` of re T_n, at cost O((nq)^3); the
prefixes are scanned one by one only when its smallest eigenvalue lies
below -tol (1 + ||C_0||), to name the first bad T_k (see `_scan`).
Elsewhere a Cholesky that runs to completion certifies
(`_cholesky_clears`): full-rank data and the nonnegativity of singular
data (`_enter`), and a central extension, TND by construction
(`_first_violation_certified`).

Each entry point that needs the central predictor makes one pass, `_enter`:
||C_0|| and re T_n, rank T_n, and the predictor by the route that rank
selects (`_predictor`); later stages read all of them from that record.
Full-rank data is cleared by one Cholesky, O((nq)^3 / 3), and takes one
LU solve of T_{n-1}.  Singular data takes the predictor's one SVD of
T_{n-1}, O((nq)^3).  From size _SCHUR_MIN_SIZE on, a second Cholesky
proves it TND and that SVD with the q x q Schur complement gives rank T_n
(`_schur_rank`) with no eigensolve of T_n; the scan's eigvalsh runs on
smaller T_n and where that certificate cannot tell.

`MatrixSeq` validates a stacked (L, q, q) input in one pass (one copy, one
finiteness test); its coefficients are read-only views into that copy,
which it keeps for the code that reads every coefficient at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InvalidInputError, ModelError
from .linalg import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_RTOL,
    as_cmatrix,
    _pow2_scaled,
    _require_rel_tol,
    _svd,
    re_mat,
    spec_norm,
)


_EPS = float(np.finfo(float).eps)
# Smallest size N of re T_n whose singular entry takes the Schur
# certificate (`_schur_rank`).  Its second Cholesky and its small steps cost
# about 80 us per entry whatever N, one eigvalsh of re T_n O(N^3): on one
# core of a shared 2-vCPU Xeon (numpy 2.4, one BLAS thread) the entry took
# about 80 us longer than with the scan at N = 5..20, as long near N = 40,
# and 14-21% less from N = 66 to 132.
_SCHUR_MIN_SIZE = 40


class MatrixSeq:
    """Immutable finite sequence of complex q x q matrices.

    The coefficients are read-only views into one validated (L, q, q)
    stack, which the private ``_stack`` keeps for the code that reads them
    all at once (`toeplitz_matrix`, `_continue`, `measure.verify_recovery`),
    so none of it stacks them again."""

    __slots__ = ("q", "coeffs", "_stack")

    def __init__(self, coeffs):
        # one pass over a stacked (L, q, q) input: one copy, one finiteness test
        try:
            stack = np.array(coeffs, dtype=complex)
        except (TypeError, ValueError, OverflowError):
            stack = None
        if not (
            stack is not None
            and stack.ndim == 3
            and stack.shape[0] >= 1
            and stack.shape[1] == stack.shape[2] >= 1
            and np.isfinite(stack).all()
        ):
            stack = _checked_stack(coeffs)
        stack.flags.writeable = False
        object.__setattr__(self, "q", stack.shape[1])
        object.__setattr__(self, "coeffs", tuple(stack))
        object.__setattr__(self, "_stack", stack)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, j: int) -> np.ndarray:
        return self.coeffs[j]

    def coeff(self, j: int) -> np.ndarray:
        """Coefficient at any integer index; negative indices adjoint-reflect."""
        if j >= 0:
            return self.coeffs[j]
        return self.coeffs[-j].conj().T

    def prefix(self, length: int):
        if not 1 <= length <= len(self):
            raise IndexError(f"prefix length {length} outside 1..{len(self)}")
        return type(self)(self._stack[:length])

    def append(self, c):
        return type(self)(self.coeffs + (as_cmatrix(c),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(q={self.q}, len={len(self)})"


def _checked_stack(coeffs) -> np.ndarray:
    """Coefficients validated one by one, in index order, for the error of
    the first bad one: a non-matrix or non-finite coefficient, an empty
    sequence, then a shape other than C_0's."""
    mats = [as_cmatrix(c) for c in coeffs]
    if not mats:
        raise InvalidInputError("a sequence needs at least one coefficient")
    q = mats[0].shape[0]
    for j, c in enumerate(mats):
        if c.shape != (q, q):
            raise DimensionError(
                f"coefficient {j} has shape {c.shape}, expected ({q}, {q})"
            )
    return np.array(mats)


class HermSeq(MatrixSeq):
    """One-sided covariance sequence C_0..C_n with C_{-j} = C_j* implied."""


class Classification(Enum):
    TPD = "TPD"
    TND = "TND"
    NOT_TND = "NOT_TND"


@dataclass(frozen=True)
class MatrixBall:
    """Matrix ball {center + sqrt(left) K sqrt(right) : ||K|| <= 1}."""

    center: np.ndarray
    left: np.ndarray
    right: np.ndarray


def toeplitz_matrix(seq: MatrixSeq, n: int) -> np.ndarray:
    """Block Toeplitz T_n = [C_{j-k}] for 0 <= j, k <= n; every other block
    layout is a slice of it (see the module docstring)."""
    if not 0 <= n < len(seq):
        raise IndexError(f"order {n} outside stored range 0..{len(seq) - 1}")
    q = seq.q
    c = seq._stack[: n + 1]
    # [C_n*, ..., C_1*, C_0, ..., C_n]: block (j, k) is entry n + j - k
    both = np.concatenate([np.conj(c[:0:-1]).swapaxes(1, 2), c])
    j = np.arange(n + 1)
    blocks = both[n + j[:, None] - j]
    return blocks.transpose(0, 2, 1, 3).reshape((n + 1) * q, (n + 1) * q)


def _debug_logger():
    """The "matspec" logger when it is enabled for debug lines, else None.
    Only a program that imported `logging` can have enabled it, so this does
    not import it: `import matspec`, and the CLI without MATSPEC_LOG, never
    load it (about 3 ms)."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("matspec")
    return log if log.isEnabledFor(logging.DEBUG) else None


class _Scan(NamedTuple):
    """Result of `_scan`."""

    bad: int | None  # first k with T_k not nonnegative Hermitian
    margin: float  # smallest lambda_min(re T_k) / (1 + ||T_k||) scanned
    eigenvalues: np.ndarray  # of re T_n, ascending; empty when C_0 fails
    c0_norm: float  # ||C_0||
    t: np.ndarray | None  # re T_n; None when C_0 fails


def _head(t: np.ndarray, q: int, tol: float) -> tuple[float, np.ndarray | None]:
    """||C_0|| and re T_n (None if C_0 fails the Hermiticity test) of ``t`` = T_n."""
    if not 0.0 <= tol < 1.0:
        raise InvalidInputError(f"psd_tol {tol} must lie in [0, 1)")
    c0 = t[:q, :q]
    c0_norm = spec_norm(c0)
    if spec_norm(c0 - c0.conj().T) > tol * (1.0 + c0_norm):
        return c0_norm, None
    return c0_norm, _re_toeplitz(t, q)


def _re_toeplitz(t: np.ndarray, q: int) -> np.ndarray:
    """re ``t`` = (T + T*) / 2 of a T_n from `toeplitz_matrix`, bit for bit
    `re_mat(t)`: T_n is Hermitian off its diagonal blocks by construction
    (block (k, j) is C_{j-k}*), where (x + x) / 2 = x, so re T_n is a copy
    of T_n with each diagonal block replaced by its real part: one N x N
    copy and no N x N temporaries."""
    rt = t.copy()
    rows, cols = rt.strides
    # the diagonal blocks as one (n + 1, q, q) view of rt: each starts q
    # rows and q columns after the one before
    diag = np.ndarray((len(t) // q, q, q), rt.dtype, rt, 0, (q * (rows + cols), rows, cols))
    diag[...] = re_mat(diag)
    return rt


def _scan(t: np.ndarray, q: int, tol: float, head=None) -> _Scan:
    """Nonnegativity of the leading blocks T_0..T_n of the block Toeplitz T_n,
    from one eigvalsh of re T_n; per-prefix only below -tol (1 + ||C_0||).

    Returns the first k with T_k not nonnegative Hermitian (None when the
    sequence is TND), the smallest margin lambda_min(re T_k) / (1 + ||T_k||)
    over the prefixes scanned, the eigenvalues of re T_n, from which
    `_rank` reads rank T_n, ||C_0|| and re T_n itself.  T_k - T_k* is block
    diagonal with blocks C_0 - C_0* and ||T_k|| >= ||C_0||, so Hermiticity
    is decided on C_0 alone, and a C_0 that fails it gives (0, -inf, no
    eigenvalues, no re T_n); ||T_k|| is read off the same eigenvalues as
    lambda_min.

    Each T_k is a leading principal submatrix of T_n, so by Cauchy
    interlacing lambda_min(T_k) >= lambda_min(T_n) and
    ||C_0|| <= ||T_k|| <= ||T_n||.  When lambda_min(re T_n) >= -tol (1 + ||C_0||)
    no prefix fails, and when lambda_min >= 0 the smallest margin is T_n's;
    in the band between, only the reported negative margin may differ from
    the per-prefix minimum (it is T_n's).  The bound takes ||C_0|| for
    ||re C_0||; once C_0 passes the Hermiticity test the two differ by at
    most tol (1 + ||C_0||) / 2, which moves the bound by far less than
    eigvalsh's roundoff.  Below the band the per-prefix loop finds the exact
    first bad index, reusing T_n's eigenvalues for the last step.  Cost
    O((nq)^3) on passing input, O(n^4 q^3) below the band.  ``head`` is
    `_head` of ``t`` when the caller has it.
    """
    c0_norm, t = _head(t, q, tol) if head is None else head
    if t is None:
        return _Scan(0, -np.inf, np.empty(0), c0_norm, None)
    n = len(t) // q - 1
    w_n = np.linalg.eigvalsh(t)
    bound = -tol * (1.0 + c0_norm)
    if w_n[0] >= bound:
        margin = float(w_n[0]) / (1.0 + max(-w_n[0], w_n[-1]))
        return _Scan(None, margin, w_n, c0_norm, t)
    margin, bad = np.inf, None
    for k in range(n + 1):
        w = w_n if k == n else np.linalg.eigvalsh(t[: (k + 1) * q, : (k + 1) * q])
        margin = min(margin, float(w[0]) / (1.0 + max(-w[0], w[-1])))
        if margin < -tol:
            bad = k
            break
    if (log := _debug_logger()) is not None:
        log.debug("prefix scan fallback: lambda_min(re T_%d) = %.3e below %.3e, "
                  "first bad T_%s", n, w_n[0], bound, bad)
    return _Scan(bad, margin, w_n, c0_norm, t)


def _rank(eigenvalues: np.ndarray, rank_rtol: float) -> int:
    """Numerical rank of a Hermitian PSD matrix from its ascending
    eigenvalues: those above rank_rtol times the largest, the cutoff
    `_svd_fit` applies to singular values."""
    return int(np.count_nonzero(eigenvalues > rank_rtol * eigenvalues.max(initial=0.0)))


def _classification(bad: int | None, margin: float, tol: float) -> Classification:
    """TPD / TND / NOT_TND from the result of one `_scan`."""
    if bad is not None:
        return Classification.NOT_TND
    return Classification.TPD if margin > tol else Classification.TND


def _require_tnd(t: np.ndarray, q: int, tol: float, head=None) -> _Scan:
    """Scan T_n once; raise ModelError naming the first bad T_k, else return
    the scan."""
    scan = _scan(t, q, tol, head)
    if scan.bad is not None:
        raise ModelError(f"T_{scan.bad} not nonnegative Hermitian", index=scan.bad)
    return scan


def first_violation(seq: HermSeq, tol: float = DEFAULT_PSD_TOL) -> int | None:
    """Smallest k with T_k not nonnegative Hermitian, or None if TND.

    Nonnegativity of T_k is judged relative to 1 + ||T_k||.
    """
    return _scan(toeplitz_matrix(seq, len(seq) - 1), seq.q, tol).bad


def classify(seq: HermSeq, tol: float = DEFAULT_PSD_TOL) -> Classification:
    """TPD / TND / NOT_TND test over every prefix Toeplitz matrix."""
    scan = _scan(toeplitz_matrix(seq, len(seq) - 1), seq.q, tol)
    return _classification(scan.bad, scan.margin, tol)


def ball_params(seq: HermSeq, n: int) -> MatrixBall:
    """Ball of admissible coefficients C_{n+1} given the TND prefix C_0..C_n:

        center = Z T' Y,   left = C_0 - Z T' Z*,   right = C_0 - Y* T' Y,

    T' the pseudoinverse of T_{n-1}, Y the block column of C_1..C_n and Z
    the block row of C_n..C_1, read off re T_n.  The centre is Z w for the
    refined predictor w = T' Y the central extension continues with, and
    Z T' Z* = (Z U_r) diag(1/s_r) (Z U_r)* comes from the same one SVD
    T_{n-1} = U_r diag(s_r) U_r* (`_svd_fit`), whatever the rank.
    For n = 0 the products are empty: centre zero, both semi-radii C_0.
    """
    scan = _require_tnd(toeplitz_matrix(seq, n), seq.q, DEFAULT_PSD_TOL)
    t, q = scan.t, seq.q
    w, u_r, s_r = _predictor(t, q, DEFAULT_RANK_RTOL, False)
    c0, y, z, w = t[:q, :q], t[q:, :q], t[-q:, :-q], w.reshape(n * q, q)
    zu = z @ u_r
    left = re_mat(c0 - (zu / s_r) @ zu.conj().T)
    return MatrixBall(center=z @ w, left=left, right=re_mat(c0 - y.conj().T @ w))


class _Entry(NamedTuple):
    """Result of `_enter`: what an entry point reads of its T_n."""

    t: np.ndarray  # re T_n
    c0_norm: float  # ||C_0||
    rank: int  # rank T_n at the rank_rtol cutoff
    full_rank: bool  # rank T_n = its size: the LU route
    w: np.ndarray  # predictor blocks w_1..w_n, shape (n, q, q)
    u_r: np.ndarray | None  # range of T_{n-1} from the SVD route, else None
    s_r: np.ndarray | None  # its singular values, else None
    cleared: bool = False  # by `_enter`'s Cholesky: full rank, re T_{n-1} >= 0


def _unit_scaled(t: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """``t`` / 2^e and e for ``t`` = re T_n, 2^e the power of two above
    tr C_0, which bounds every entry of TND T_n (`linalg._pow2_scaled`):
    ``t`` itself, uncopied, at normal scale.  Every route reads T_{n-1} and
    Y_n off this copy, where no norm overflows and no pivot or singular
    value underflows; w = T_{n-1}' Y_n does not depend on the scale."""
    return _pow2_scaled(t, t[:q, :q].trace().real)


def _enter(t: np.ndarray, q: int, psd_tol: float, rank_rtol: float) -> _Entry:
    """The one pass each entry point makes over ``t`` = T_n: ||C_0||, re T_n,
    rank T_n at the rank_rtol cutoff (checked first: InvalidInputError
    outside (0, 1)) and the predictor by the route that rank selects.
    Every factorization and norm reads re T_n scaled by the power of two of
    tr C_0 (`_unit_scaled`), so no shift, bound or predictor overflows or
    underflows where the data's own norms would.

    One Cholesky of re T_n - s I, s = (rank_rtol + 4 (N + 1)^2 eps)
    ||re T_n||_F, N = len(t), clears full-rank data at O((nq)^3 / 3): the
    slack covers its backward error (`_cholesky_clears`) and eigvalsh's,
    so every prefix passes, `_rank` would give N, and its leading block
    proves re T_{n-1} >= 0 (``cleared``); w is one LU solve.

    Else a debug line gives the size and the shift.  From N =
    _SCHUR_MIN_SIZE on (n >= 1), a second Cholesky, of
    re T_n + (nu - slack) I, nu = psd_tol (1 + ||C_0||), proves
    lambda_min(re T_n) >= -nu with the same slack, so the scan would pass
    every prefix, and the predictor's one SVD of T_{n-1}, O((nq)^3), and
    the q x q Schur complement give rank T_n (`_schur_rank`) where no
    eigenvalue bound straddles the cutoff band; there the count equals
    `_rank` of eigvalsh of re T_n.  Otherwise the scan decides, as it
    decides which index fails, with one more debug line where the
    certificate was tried.  Rank N takes the LU route, any other the SVD's
    factors."""
    _require_rel_tol(rank_rtol)
    head = c0_norm, rt = _head(t, q, psd_tol)
    if rt is None:
        _require_tnd(t, q, psd_tol, head)  # raises: T_0 fails
    big, n = len(t), len(t) // q - 1
    # TND data has no entry above tr C_0: only other data can overflow
    # here, and its infinite shift declines
    scaled, e = _unit_scaled(rt, q)
    roundoff = 4.0 * (big + 1) ** 2 * _EPS
    with np.errstate(over="ignore"):
        size = np.linalg.norm(scaled)
        shift = (rank_rtol + roundoff) * size
    if _cholesky_clears(scaled, -shift):
        return _Entry(rt, c0_norm, big, True, *_scaled_predictor(scaled, e, q, rank_rtol, True), True)
    log = _debug_logger()
    if log is not None:
        with np.errstate(over="ignore"):
            log.debug("full-rank certificate declined: Cholesky of re T_%d - %.3e I failed "
                      "(size %d)", n, np.ldexp(shift, e), big)
    rank = fit = None
    if n > 0 and big >= _SCHUR_MIN_SIZE:
        # nu in the copy's units; beyond 2 ||re T_n||_F + 1 any shift
        # clears, a cap that keeps it finite at the subnormal scale
        with np.errstate(over="ignore"):
            nu = min(float(np.ldexp(psd_tol * (1.0 + c0_norm), -e)), 2.0 * size + 1.0)
        if _cholesky_clears(scaled, nu - roundoff * (size + 0.5 * math.sqrt(big) * nu)):
            fit = _svd_fit(scaled, e, q, rank_rtol)
            rank = _schur_rank(scaled, q, fit, size, rank_rtol)
            why = "rank T_%d undecided by the Schur certificate (size %d)"
        else:
            why = "Cholesky of re T_%d + nu I failed (size %d)"
        if rank is None and log is not None:
            log.debug(f"singular entry: {why}, the scan decides", n, big)
    if rank is None:
        rank = _rank(_require_tnd(t, q, psd_tol, head).eigenvalues, rank_rtol)
    if fit is None or rank == big:
        w, u_r, s_r = _scaled_predictor(scaled, e, q, rank_rtol, rank == big)
    else:
        w, u_r, s_r = fit[:3]
    return _Entry(rt, c0_norm, rank, rank == big, w, u_r, s_r)


def _predictor(
    t: np.ndarray, q: int, rank_rtol: float, full_rank: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Blocks w_1..w_n of w = T_{n-1}' Y_n, shape (n, q, q), read off the
    block Toeplitz ``t`` = T_n, with the range (U_r, s_r) of T_{n-1} when
    the SVD route ran (None after LU); w is empty for n = 0.  The centre of
    the ball `ball_params(seq, n)` is the one-step prediction
    sum_m C_{n+1-m} w_m, and the central extension of C_0..C_n keeps the
    same w for every later coefficient.  Both routes read T_{n-1} and Y_n
    off `_unit_scaled` of ``t`` (`_scaled_predictor`).

    ``full_rank`` is the caller's entry pass saying that T_n, or a block
    Toeplitz matrix with T_n as a leading block, has full rank at the
    rank_rtol cutoff (`_rank`).  By Cauchy interlacing T_{n-1} then has full
    rank at the same cutoff, its pseudoinverse is its inverse, and w comes
    from one LU solve with partial pivoting, O((nq)^3 / 3).  LU is backward
    stable, so the Yule-Walker residual Y_n - T_{n-1} w is at roundoff with
    no refinement (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 9).  Singular data takes the SVD of `_svd_fit`, whose
    T_{n-1} = U_r diag(s_r) U_r* keeps the singular values above rank_rtol
    times the largest; r = len(s_r) is rank T_{n-1}.  No prefix check.
    """
    return _scaled_predictor(*_unit_scaled(t, q), q, rank_rtol, full_rank)


def _scaled_predictor(
    scaled: np.ndarray, e: int, q: int, rank_rtol: float, full_rank: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """`_predictor` of ``scaled`` = re T_n / 2^e, s_r in the data's units."""
    n = len(scaled) // q - 1
    if n == 0:
        return np.zeros((0, q, q), dtype=complex), np.zeros((0, 0)), np.zeros(0)
    if full_rank:
        return np.linalg.solve(scaled[:-q, :-q], scaled[q:, :q]).reshape(n, q, q), None, None
    return _svd_fit(scaled, e, q, rank_rtol)[:3]


class _Fit(NamedTuple):
    """Result of `_svd_fit`."""

    w: np.ndarray  # predictor blocks w_1..w_n, shape (n, q, q)
    u_r: np.ndarray  # range of T_{n-1}
    s_r: np.ndarray  # its singular values, in the data's units
    u: np.ndarray  # the SVD U S V* of the scaled T_{n-1}, all of it
    s: np.ndarray
    vh: np.ndarray


def _svd_fit(scaled: np.ndarray, e: int, q: int, rank_rtol: float) -> _Fit:
    """The SVD route of the predictor on ``scaled`` = re T_n / 2^e, n >= 1:
    one SVD of T_{n-1}, O((nq)^3) with a larger constant than LU, the
    singular values above rank_rtol times the largest kept (s_r times 2^e
    in the data's units).

    The quotient reproduces the data exactly when the Yule-Walker residual
    Y_n - T_{n-1} w vanishes.  T' Y from one SVD leaves a residual of about
    eps cond(T) times ||T|| ||w||, so two steps of iterative refinement
    w <- w + T'(Y - T w) follow, with the same pseudoinverse (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 12), applied through
    its factors (`_refined_solve`).
    """
    n = len(scaled) // q - 1
    tn = scaled[:-q, :-q]
    u, s, vh = _svd(tn)
    keep = s > rank_rtol * s.max(initial=0.0)
    u_r, s_r = u[:, keep], s[keep]
    w = _refined_solve(tn, scaled[q:, :q], u_r, vh[keep].conj().T, s_r)
    return _Fit(w.reshape(n, q, q), u_r, np.ldexp(s_r, e), u, s, vh)


def _refined_solve(
    tn: np.ndarray, y: np.ndarray, left: np.ndarray, right: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """w = T' y for ``tn`` = T, T' = right diag(1 / values) left*, applied
    through its factors at O(N r q), N = len(tn) and r = len(values), with
    no N x N pseudoinverse; then two steps of iterative refinement
    w <- w + T'(y - T w), O(N^2 q) each."""
    left, right = left.conj().T, right / values
    w = right @ (left @ y)
    for _ in range(2):
        w = w + right @ (left @ (y - tn @ w))
    return w


def _schur_rank(a: np.ndarray, q: int, fit: _Fit, size: float, rank_rtol: float) -> int | None:
    """rank T_n at the rank_rtol cutoff as `_rank` reads it off eigvalsh of
    ``a`` = re T_n (scaled), of Frobenius norm ``size``, n >= 1, or None
    where the bounds below cannot tell: from the predictor's SVD of
    T = T_{n-1} (``fit``) and the q x q Schur complement, with no
    eigensolve of T_n.

    With Y = Y_n, the Yule-Walker residual rho = Y - T w and
    R = re(C_0 - Y* w),

        re T_n = K diag(R, T) K* + Delta,   K = [[I, w*], [0, I]],
        Delta = [[re(rho* w), rho*], [rho, 0]],

    an identity for any w.  By Ostrowski's theorem (Horn and Johnson,
    Matrix Analysis, Thm 4.5.9) the k-th eigenvalue of K diag(R, T) K* is
    theta_k mu_k, mu_k the k-th of diag(R, T) and theta_k between
    1 / kappa and kappa = sigma_max(K)^2 <= ((||w|| + (||w||^2 + 4)^(1/2)) / 2)^2,
    and by Weyl's inequality Delta moves it by at most ||rho|| (1 + ||w||).
    Bounds on each mu_k bound the k-th eigenvalue, and a count of bounds
    above or below a level needs no sort.  T's eigenvalues are its
    singular values signed by u_i* v_i (either sign where |u_i* v_i| <= 1/2),
    R's one q x q eigvalsh.

    Roundoff: each product adds at most (N + 1) eps times the product of
    its factors' Frobenius norms (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 3), to rho and to R; each
    factorization, the SVD of T and the eigvalsh `_rank` reads, a backward
    error of 4 (N + 1) eps Lambda, Lambda = s_max + 2^(1/2) ||[C_0; Y]||_F
    >= ||re T_n|| (re T_n = diag(0, T) + [[C_0, Y*], [Y, 0]]).

    The cutoff rank_rtol lambda_max lies within rank_rtol times the bounds
    on the largest eigenvalue: at least T's, a trailing principal block
    (Cauchy interlacing), and at most Lambda.  Eigenvalues whose bounds
    lie wholly above that band are counted and those wholly at or below it
    are not; when every one is either, the count is rank T_n.  Cost
    O((nq)^2 q) besides the SVD.
    """
    big, m = len(a), len(a) - q
    y, w = a[q:, :q], fit.w.reshape(m, q)
    omega, col = float(np.linalg.norm(w)), float(np.linalg.norm(a[:, :q]))
    gamma = (big + 1) * _EPS
    top = float(fit.s[0]) + math.sqrt(2.0) * col
    fact = 4.0 * gamma * top
    rho = float(np.linalg.norm(y - a[q:, q:] @ w)) + gamma * (col + size * omega)
    sigma = 0.5 * (omega + math.sqrt(omega * omega + 4.0))
    kappa, delta = sigma * sigma, rho * (1.0 + omega) + fact
    # bounds on diag(R, T)'s eigenvalues: R's from one q x q eigvalsh; T's
    # are its singular values, negative unless u_i* v_i > 1/2 says not
    r_eig = np.linalg.eigvalsh(re_mat(a[:q, :q] - y.conj().T @ w))
    r_err = 4.0 * gamma * col * (1.0 + omega)
    t_low = np.where(np.einsum("ji,ij->i", fit.u, fit.vh).real > 0.5, fit.s, -fit.s) - fact
    low = np.concatenate([r_eig - r_err, t_low])
    high = np.concatenate([r_eig + r_err, fit.s + fact])
    # ... and on those eigvalsh would give: by Ostrowski and Weyl
    low = np.minimum(low / kappa, low * kappa) - delta
    high = np.maximum(high * kappa, high / kappa) + delta
    # lambda_max(re T_n) >= lambda_max(T), less eigvalsh's own error
    band_low = rank_rtol * max(float(low.max()), float(t_low.max()) - fact, 0.0)
    band_high = rank_rtol * max(min(float(high.max()), top + 2.0 * fact), 0.0)
    above = int(np.count_nonzero(low > band_high))
    return above if above + np.count_nonzero(high <= band_low) == big else None


def _recur(x: np.ndarray, taps: np.ndarray, start: int) -> np.ndarray:
    """Block recurrence over the stack ``x`` of X_0..X_{L-1}, shape
    (L, q, q): for k = start..L-1, X_k, which holds its forcing, adds
    X_{k-d} A_1 + ... + X_{k-1} A_d for ``taps`` = A_1..A_d, shape
    (d, q, q), start >= d.  Returns the completed stack and leaves ``x``
    as it was; `_continue` and `caratheodory.taylor_coefficients` run it.

    It runs on a contiguous copy of the transposed blocks X_k^T, read as
    (L q, q) rows: there the window X_{k-d}^T..X_{k-1}^T of step k is one
    contiguous slice, and X_k^T += [A_1^T, ..., A_d^T] window is one
    matmul into a q x q buffer and one in-place add.  O((L - start) d q^3).
    """
    length, q = x.shape[:2]
    xt = x.swapaxes(1, 2).copy().reshape(length * q, q)
    taps_t = np.ascontiguousarray(taps.reshape(-1, q).T)  # (q, d q)
    dq, step = taps_t.shape[1], np.empty((q, q), dtype=complex)
    for k in range(start * q, length * q, q):
        np.matmul(taps_t, xt[k - dq : k], out=step)
        xt[k : k + q] += step
    return xt.reshape(length, q, q).swapaxes(1, 2)


def _cholesky_clears(a: np.ndarray, shift: float) -> bool:
    """Whether the Cholesky of the Hermitian ``a`` + ``shift`` I, shifted in
    place and restored bit for bit, runs to completion: then lambda_min(a)
    >= -shift - 2 (N + 1)^2 eps ||a + shift I||_F, N = len(a) (Higham 2002,
    Thm 10.5)."""
    diag = a.diagonal().copy()
    a.flat[:: len(a) + 1] += shift
    try:
        return np.linalg.cholesky(a) is not None
    except np.linalg.LinAlgError:
        return False
    finally:
        a.flat[:: len(a) + 1] = diag


def _first_violation_certified(
    t: np.ndarray, q: int, tol: float, c0_norm: float
) -> int | None:
    """`_scan`'s first bad index of T_n, for ``t`` whose C_0, of norm
    ``c0_norm``, has passed a scan's Hermiticity test.  A Cholesky of
    re T_n + tol (1 + ||C_0||) I that runs to completion (`_cholesky_clears`)
    clears every prefix, as `_scan`'s eigvalsh would, at O((nq)^3 / 3).
    Otherwise `_scan` names the first bad T_k, and one debug line on the
    ``matspec`` logger gives the size, the shift and that index.
    """
    shift = tol * (1.0 + c0_norm)
    if _cholesky_clears(_re_toeplitz(t, q), shift):
        return None
    bad = _scan(t, q, tol).bad
    if (log := _debug_logger()) is not None:
        log.debug("Cholesky of re T_%d + %.3e I failed (size %d), first bad T_%s",
                  len(t) // q - 1, shift, len(t), bad)
    return bad


def _continue(
    seq: HermSeq, w: np.ndarray, target_len: int, psd_tol: float, c0_norm: float
) -> HermSeq:
    """Central extension of C_0..C_n with predictor ``w``, checked once.

    Appends C_k = sum_{m=1..n} C_{k-m} w_m, one product each on the block
    stack (`_recur`), until ``target_len`` = L coefficients and raises ModelError
    when the result is not TND.  The caller has scanned C_0..C_n, which
    gave ``c0_norm`` = ||C_0||.  The result is TND by construction, so its
    check takes one Cholesky of re T_{L-1}, O((Lq)^3 / 3), and eigvalsh
    only when that fails (`_first_violation_certified`).
    """
    q = seq.q
    stack = np.zeros((target_len, q, q), dtype=complex)
    stack[: len(seq)] = seq._stack
    # zero forcing, taps w_n, ..., w_1
    out = HermSeq(_recur(stack, w[::-1], len(seq)))
    if len(out) > len(seq):
        t = toeplitz_matrix(out, target_len - 1)
        bad = _first_violation_certified(t, q, psd_tol, c0_norm)
        if bad is not None:
            raise ModelError(
                f"central extension not nonnegative Hermitian at T_{bad}", index=bad
            )
    return out
