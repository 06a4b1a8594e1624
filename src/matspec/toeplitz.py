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

Nonnegativity of T_0..T_n is decided by one `eigvalsh` of re T_n, at cost
O((nq)^3); the prefixes are scanned one by one only when its smallest
eigenvalue lies below -tol (1 + ||C_0||), to name the first bad T_k (see
`_scan`).  A central extension, TND by construction, is checked by one
Cholesky of its shifted re T_{L-1} instead, and scanned only when that
fails (`_first_violation_certified`).

Each entry point that needs the central predictor makes one pass, `_enter`:
the scan, which gives ||C_0|| and re T_n, rank T_n off its eigenvalues,
and the predictor by the route that rank selects (`_predictor`); later
stages read all of them from that record.

`MatrixSeq` validates a stacked (L, q, q) input in one pass (one copy, one
finiteness test); its coefficients are read-only views into that copy.
"""

from __future__ import annotations

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
    _require_rel_tol,
    _svd,
    re_mat,
    spec_norm,
)


class MatrixSeq:
    """Immutable finite sequence of complex q x q matrices."""

    __slots__ = ("q", "coeffs")

    def __init__(self, coeffs):
        # one pass over a stacked (L, q, q) input: one copy, one finiteness
        # test; the coefficients are read-only views into the copy
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
        return type(self)(self.coeffs[:length])

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
    c = np.asarray(seq.coeffs[: n + 1])
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


def _scan(t: np.ndarray, q: int, tol: float) -> _Scan:
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
    O((nq)^3) on passing input, O(n^4 q^3) below the band.  The psd_tol
    ``tol`` of every entry point must lie in [0, 1) (InvalidInputError).
    """
    if not 0.0 <= tol < 1.0:
        raise InvalidInputError(f"psd_tol {tol} must lie in [0, 1)")
    c0 = t[:q, :q]
    c0_norm = spec_norm(c0)
    if spec_norm(c0 - c0.conj().T) > tol * (1.0 + c0_norm):
        return _Scan(0, -np.inf, np.empty(0), c0_norm, None)
    t = re_mat(t)
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
    log = _debug_logger()
    if log is not None:
        log.debug(
            "prefix scan fallback: lambda_min(re T_%d) = %.3e below %.3e, "
            "first bad T_%s", n, w_n[0], bound, bad,
        )
    return _Scan(bad, margin, w_n, c0_norm, t)


def _rank(eigenvalues: np.ndarray, rank_rtol: float) -> int:
    """Numerical rank of a Hermitian PSD matrix from its ascending
    eigenvalues: those above rank_rtol times the largest, the cutoff
    `_predictor_range` applies to singular values."""
    _require_rel_tol(rank_rtol)
    return int(np.count_nonzero(eigenvalues > rank_rtol * eigenvalues.max(initial=0.0)))


def _classification(bad: int | None, margin: float, tol: float) -> Classification:
    """TPD / TND / NOT_TND from the result of one `_scan`."""
    if bad is not None:
        return Classification.NOT_TND
    return Classification.TPD if margin > tol else Classification.TND


def _require_tnd(t: np.ndarray, q: int, tol: float) -> _Scan:
    """Scan T_n once; raise ModelError naming the first bad T_k, else return
    the scan."""
    scan = _scan(t, q, tol)
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
    T_{n-1} = U_r diag(s_r) U_r* (`_predictor_range`), whatever the rank.
    For n = 0 the products are empty: centre zero, both semi-radii C_0.
    """
    scan = _require_tnd(toeplitz_matrix(seq, n), seq.q, DEFAULT_PSD_TOL)
    t, q = scan.t, seq.q
    w, u_r, s_r = _predictor_range(t, q, DEFAULT_RANK_RTOL)
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


def _enter(t: np.ndarray, q: int, psd_tol: float, rank_rtol: float) -> _Entry:
    """The one pass each entry point makes over ``t`` = T_n: one scan
    (ModelError naming the first bad T_k), which gives ||C_0||, re T_n and
    the eigenvalues rank T_n is read from, then the predictor of re T_n by
    the route that rank selects (`_predictor`)."""
    scan = _require_tnd(t, q, psd_tol)
    rank = _rank(scan.eigenvalues, rank_rtol)
    full_rank = rank == len(t)
    w, u_r, s_r = _predictor(scan.t, q, rank_rtol, full_rank)
    return _Entry(scan.t, scan.c0_norm, rank, full_rank, w, u_r, s_r)


def _predictor(
    t: np.ndarray, q: int, rank_rtol: float, full_rank: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Blocks w_1..w_n of w = T_{n-1}' Y_n, shape (n, q, q), read off the
    block Toeplitz ``t`` = T_n, with the range (U_r, s_r) of T_{n-1} when
    the SVD route ran (None after LU); w is empty for n = 0.  The centre of
    the ball `ball_params(seq, n)` is the one-step prediction
    sum_m C_{n+1-m} w_m, and the central extension of C_0..C_n keeps the
    same w for every later coefficient.

    ``full_rank`` is the caller's scan saying that T_n, or a block Toeplitz
    matrix with T_n as a leading block, has full rank at the rank_rtol
    cutoff (`_rank`).  By Cauchy interlacing T_{n-1} then has full rank at
    the same cutoff, its pseudoinverse is its inverse, and w comes from one
    LU solve with partial pivoting, O((nq)^3 / 3).  LU is backward stable,
    so the Yule-Walker residual Y_n - T_{n-1} w is at roundoff with no
    refinement (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 9).  Singular data takes the SVD of `_predictor_range`.
    """
    n = len(t) // q - 1
    if full_rank and n > 0:
        return np.linalg.solve(t[:-q, :-q], t[q:, :q]).reshape(n, q, q), None, None
    return _predictor_range(t, q, rank_rtol)


def _predictor_range(
    t: np.ndarray, q: int, rank_rtol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_predictor` of singular data with the range of T_{n-1} its
    pseudoinverse keeps: (w, U_r, s_r), T_{n-1} = U_r diag(s_r) U_r* over
    the singular values above rank_rtol times the largest, all from one
    SVD, O((nq)^3) with a larger constant than LU.  r = len(s_r) is
    rank T_{n-1}.

    No prefix check.

    The quotient reproduces the data exactly when the Yule-Walker residual
    Y_n - T_{n-1} w vanishes.  T' Y from one SVD leaves a residual of about
    eps cond(T) times ||T|| ||w||, so two steps of iterative refinement
    w <- w + T'(Y - T w) follow, with the same pseudoinverse (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 12).
    """
    n = len(t) // q - 1
    if n == 0:
        return np.zeros((0, q, q), dtype=complex), np.zeros((0, 0)), np.zeros(0)
    tn, y = t[:-q, :-q], t[q:, :q]
    u, s, vh = _svd(tn)
    keep = s > rank_rtol * s.max(initial=0.0)
    u_r, s_r = u[:, keep], s[keep]
    tp = (vh[keep].conj().T * (1.0 / s_r)) @ u_r.conj().T
    w = tp @ y
    for _ in range(2):
        w = w + tp @ (y - tn @ w)
    return w.reshape(n, q, q), u_r, s_r


def _recur(row: np.ndarray, taps: np.ndarray, start: int) -> None:
    """Block recurrence over the q x q blocks X_0..X_{L-1} of ``row``,
    shape (q, L q), in place: for k = start..L-1, block k, which holds its
    forcing, adds [X_{k-d}, ..., X_{k-1}] ``taps``, the d taps stacked
    (d q, q), start >= d.  One product per step, O((L - start) d q^3);
    `_continue` and `caratheodory.taylor_coefficients` run it."""
    q = len(row)
    d = len(taps) // q
    for k in range(start, row.shape[1] // q):
        row[:, k * q : (k + 1) * q] += row[:, (k - d) * q : k * q] @ taps


def _first_violation_certified(
    t: np.ndarray, q: int, tol: float, c0_norm: float
) -> int | None:
    """`_scan`'s first bad index of T_n, decided by one shifted Cholesky
    when nothing fails; for ``t`` whose C_0, of norm ``c0_norm``, has passed
    a scan's Hermiticity test.

    Cholesky of re T_n + tol (1 + ||C_0||) I succeeds only when
    lambda_min(re T_n) >= -tol (1 + ||C_0||), up to a backward error of
    order (nq) eps ||T_n|| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 10); by Cauchy interlacing no prefix T_k then
    fails, the conclusion `_scan` draws from its eigvalsh.  Cost
    O((nq)^3 / 3).  When the Cholesky fails, `_scan` runs unchanged and
    names the first bad T_k, and one debug line on the ``matspec`` logger
    gives the size, the shift and that index.
    """
    shift = tol * (1.0 + c0_norm)
    shifted = re_mat(t)
    shifted.flat[:: len(shifted) + 1] += shift
    try:
        np.linalg.cholesky(shifted)
        return None
    except np.linalg.LinAlgError:
        pass
    bad = _scan(t, q, tol).bad
    log = _debug_logger()
    if log is not None:
        log.debug(
            "Cholesky of re T_%d + %.3e I failed (size %d), first bad T_%s",
            len(t) // q - 1, shift, len(t), bad,
        )
    return bad


def _continue(
    seq: HermSeq, w: np.ndarray, target_len: int, psd_tol: float, c0_norm: float
) -> HermSeq:
    """Central extension of C_0..C_n with predictor ``w``, checked once.

    Appends C_k = sum_{m=1..n} C_{k-m} w_m, one block-row product each
    (`_recur`), until ``target_len`` = L coefficients and raises ModelError
    when the result is not TND.  The caller has scanned C_0..C_n, which
    gave ``c0_norm`` = ||C_0||.  The result is TND by construction, so its
    check takes one Cholesky of re T_{L-1}, O((Lq)^3 / 3), and eigvalsh
    only when that fails (`_first_violation_certified`).
    """
    q = seq.q
    row = np.zeros((q, target_len * q), dtype=complex)
    row[:, : len(seq) * q] = np.hstack(seq.coeffs)
    # zero forcing, taps w_n, ..., w_1
    _recur(row, w[::-1].reshape(-1, q), len(seq))
    out = HermSeq(row.reshape(q, target_len, q).swapaxes(0, 1))
    if len(out) > len(seq):
        t = toeplitz_matrix(out, target_len - 1)
        bad = _first_violation_certified(t, q, psd_tol, c0_norm)
        if bad is not None:
            raise ModelError(
                f"central extension not nonnegative Hermitian at T_{bad}", index=bad
            )
    return out
