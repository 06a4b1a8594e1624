"""Block Toeplitz structure of finite matrix covariance sequences.

A sequence C_0, ..., C_n of complex q x q matrices is stored one-sided; the
negative-index coefficients are implied by C_{-j} = C_j*.  The block Toeplitz
matrix T_n = [C_{j-k}]_{j,k=0..n} is then Hermitian whenever C_0 is, and the
sequence is called Toeplitz-nonnegative-definite (TND) when every T_k is
nonnegative Hermitian, Toeplitz-positive-definite (TPD) when every T_k is
positive definite.

Given a TND prefix C_0..C_n, the admissible next coefficients form a matrix
ball { M + sqrt(L) K sqrt(R) : ||K|| <= 1 } whose parameters are rational in
the data; `ball_params` computes them and `ball_membership` tests a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, InvalidInputError, ModelError
from .linalg import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_RTOL,
    as_cmatrix,
    is_unitary,
    numerical_rank,
    pinv,
    psd_sqrt,
    re_mat,
    spec_norm,
)


class MatrixSeq:
    """Immutable finite sequence of complex q x q matrices."""

    __slots__ = ("q", "coeffs")

    def __init__(self, coeffs):
        mats = [as_cmatrix(c) for c in coeffs]
        if not mats:
            raise InvalidInputError("a sequence needs at least one coefficient")
        q = mats[0].shape[0]
        frozen = []
        for j, c in enumerate(mats):
            if c.shape != (q, q):
                raise DimensionError(
                    f"coefficient {j} has shape {c.shape}, expected ({q}, {q})"
                )
            c = c.copy()
            c.flags.writeable = False
            frozen.append(c)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coeffs", tuple(frozen))

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
    """Block Toeplitz T_n = [C_{j-k}] for 0 <= j, k <= n."""
    if not 0 <= n < len(seq):
        raise IndexError(f"order {n} outside stored range 0..{len(seq) - 1}")
    q = seq.q
    t = np.empty(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1):
            t[j * q : (j + 1) * q, k * q : (k + 1) * q] = seq.coeff(j - k)
    return t


def col_stack(seq: MatrixSeq, n: int) -> np.ndarray:
    """Block column of C_1..C_n, shape (nq, q); empty for n = 0."""
    if not 0 <= n < len(seq):
        raise IndexError(f"order {n} outside stored range 0..{len(seq) - 1}")
    q = seq.q
    if n == 0:
        return np.zeros((0, q), dtype=complex)
    return np.vstack([seq.coeffs[j] for j in range(1, n + 1)])


def row_stack(seq: MatrixSeq, n: int) -> np.ndarray:
    """Block row of C_n, C_{n-1}, ..., C_1, shape (q, nq); empty for n = 0."""
    if not 0 <= n < len(seq):
        raise IndexError(f"order {n} outside stored range 0..{len(seq) - 1}")
    q = seq.q
    if n == 0:
        return np.zeros((q, 0), dtype=complex)
    return np.hstack([seq.coeffs[j] for j in range(n, 0, -1)])


def lower_toeplitz(coeffs, n: int | None = None) -> np.ndarray:
    """Lower block triangular Toeplitz with block (j, k) = coeffs[j - k]."""
    mats = [as_cmatrix(c) for c in coeffs]
    if n is None:
        n = len(mats) - 1
    if not 0 <= n < len(mats):
        raise IndexError(f"order {n} outside stored range 0..{len(mats) - 1}")
    q = mats[0].shape[0]
    s = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j in range(n + 1):
        for k in range(j + 1):
            s[j * q : (j + 1) * q, k * q : (k + 1) * q] = mats[j - k]
    return s


def _scan(seq: HermSeq, tol: float) -> tuple[int | None, float]:
    """One pass over the prefix Toeplitz matrices T_0..T_n.

    Returns the first k with T_k not nonnegative Hermitian (None when the
    sequence is TND) and the smallest margin lambda_min(re T_k) / (1 + ||T_k||)
    over the prefixes scanned.  T_k - T_k* is block diagonal with blocks
    C_0 - C_0* and ||T_k|| >= ||C_0||, so Hermiticity is decided on C_0 alone;
    ||T_k|| is read off the same eigenvalues as lambda_min.
    """
    c0 = seq.coeffs[0]
    if spec_norm(c0 - c0.conj().T) > tol * (1.0 + spec_norm(c0)):
        return 0, -np.inf
    q = seq.q
    t = re_mat(toeplitz_matrix(seq, len(seq) - 1))
    margin = np.inf
    for k in range(len(seq)):
        w = np.linalg.eigvalsh(t[: (k + 1) * q, : (k + 1) * q])
        margin = min(margin, float(w[0]) / (1.0 + max(-w[0], w[-1])))
        if margin < -tol:
            return k, margin
    return None, margin


def _require_tnd(seq: HermSeq, tol: float) -> float:
    """Scan once; raise ModelError naming the first bad T_k, else return the
    margin."""
    bad, margin = _scan(seq, tol)
    if bad is not None:
        raise ModelError(f"T_{bad} not nonnegative Hermitian", index=bad)
    return margin


def first_violation(seq: HermSeq, tol: float = DEFAULT_PSD_TOL) -> int | None:
    """Smallest k with T_k not nonnegative Hermitian, or None if TND.

    Nonnegativity of T_k is judged relative to 1 + ||T_k||.
    """
    return _scan(seq, tol)[0]


def classify(seq: HermSeq, tol: float = DEFAULT_PSD_TOL) -> Classification:
    """TPD / TND / NOT_TND test over every prefix Toeplitz matrix."""
    bad, margin = _scan(seq, tol)
    if bad is not None:
        return Classification.NOT_TND
    return Classification.TPD if margin > tol else Classification.TND


def ball_params(
    seq: HermSeq,
    n: int,
    rank_rtol: float = DEFAULT_RANK_RTOL,
    psd_tol: float = DEFAULT_PSD_TOL,
) -> MatrixBall:
    """Ball of admissible coefficients C_{n+1} given the TND prefix C_0..C_n.

    For n = 0 the ball is centered at zero with both semi-radii C_0.  For
    n >= 1,

        center = Z T' Y,   left = C_0 - Z T' Z*,   right = C_0 - Y* T' Y,

    where T' is the pseudoinverse of T_{n-1}, Y the block column of C_1..C_n
    and Z the block row of C_n..C_1.
    """
    if not 0 <= n < len(seq):
        raise IndexError(f"order {n} outside stored range 0..{len(seq) - 1}")
    _require_tnd(seq.prefix(n + 1), psd_tol)
    c0 = seq.coeffs[0]
    if n == 0:
        zero = np.zeros_like(c0)
        return MatrixBall(center=zero, left=c0.copy(), right=c0.copy())
    tp = pinv(toeplitz_matrix(seq, n - 1), rank_rtol)
    y = col_stack(seq, n)
    z = row_stack(seq, n)
    center = z @ tp @ y
    left = c0 - z @ tp @ z.conj().T
    right = c0 - y.conj().T @ tp @ y
    return MatrixBall(center=center, left=re_mat(left), right=re_mat(right))


def _predictor(seq: HermSeq, n: int, rank_rtol: float) -> np.ndarray:
    """Blocks w_1..w_n of w = T_{n-1}' Y_n, shape (n, q, q); empty for n = 0.

    One pseudoinverse, no prefix check.  The centre of the ball
    `ball_params(seq, n)` is the one-step prediction sum_m C_{n+1-m} w_m, and
    the central extension of C_0..C_n keeps the same w for every later
    coefficient.

    The quotient reproduces the data exactly when the Yule-Walker residual
    Y_n - T_{n-1} w vanishes.  T' Y from one SVD leaves a residual of about
    eps cond(T) times ||T|| ||w||, so two steps of iterative refinement
    w <- w + T'(Y - T w) follow, with the same pseudoinverse (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 12).
    """
    q = seq.q
    if n == 0:
        return np.zeros((0, q, q), dtype=complex)
    t, y = toeplitz_matrix(seq, n - 1), col_stack(seq, n)
    tp = pinv(t, rank_rtol)
    w = tp @ y
    for _ in range(2):
        w = w + tp @ (y - t @ w)
    return w.reshape(n, q, q)


def _predict(past: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_m C_{k-m} w_m for the k = len(past) coefficients C_0..C_{k-1} in
    ``past``, shaped (k, q, q)."""
    return (past[len(past) - len(w) :][::-1] @ w).sum(axis=0)


def _continue(seq: HermSeq, w: np.ndarray, target_len: int, psd_tol: float) -> HermSeq:
    """Central extension of C_0..C_n with predictor ``w``, scanned once.

    Appends C_k = sum_{m=1..n} C_{k-m} w_m until ``target_len`` coefficients
    and raises ModelError when the result is not TND.
    """
    c = np.zeros((target_len, seq.q, seq.q), dtype=complex)
    c[: len(seq)] = seq.coeffs
    for k in range(len(seq), target_len):
        c[k] = _predict(c[:k], w)
    out = HermSeq(c)
    if len(out) > len(seq):
        bad = _scan(out, psd_tol)[0]
        if bad is not None:
            raise ModelError(
                f"central extension not nonnegative Hermitian at T_{bad}", index=bad
            )
    return out


def ball_membership(ball: MatrixBall, x, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Whether x lies in the ball, i.e. x = center + sqrt(left) K sqrt(right)
    for some contraction K.

    Equivalent to the three conditions: the candidate contraction
    sqrt(left)' (x - center) sqrt(right)' has norm <= 1, and x - center is
    range-compatible with left (row space) and right (column space).
    """
    m = as_cmatrix(ball.center)
    x = as_cmatrix(x)
    if x.shape != m.shape:
        raise DimensionError(f"candidate shape {x.shape} != center shape {m.shape}")
    d = x - m
    scale = 1.0 + spec_norm(d)
    sl = psd_sqrt(ball.left)
    sr = psd_sqrt(ball.right)
    k = pinv(sl) @ d @ pinv(sr)
    if spec_norm(k) > 1.0 + tol:
        return False
    lproj = ball.left @ pinv(ball.left)
    if spec_norm(lproj @ d - d) > tol * scale:
        return False
    rproj = pinv(ball.right) @ ball.right
    if spec_norm(d @ rproj - d) > tol * scale:
        return False
    return True


def rank_drop(seq: HermSeq, n: int, rel_tol: float = DEFAULT_RANK_RTOL) -> bool:
    """True iff rank T_n == rank T_{n-1} (the extension freezes)."""
    if not 1 <= n < len(seq):
        raise IndexError(f"order {n} outside stored range 1..{len(seq) - 1}")
    r_now = numerical_rank(toeplitz_matrix(seq, n), rel_tol)
    r_prev = numerical_rank(toeplitz_matrix(seq, n - 1), rel_tol)
    return r_now == r_prev


def conjugate_by_unitary(seq: HermSeq, u, tol: float = DEFAULT_PSD_TOL) -> HermSeq:
    """Coefficient-wise conjugation C_j -> U* C_j U by a unitary U."""
    um = as_cmatrix(u)
    if um.shape != (seq.q, seq.q):
        raise DimensionError(f"unitary shape {um.shape} != ({seq.q}, {seq.q})")
    if not is_unitary(um, tol):
        raise InvalidInputError("conjugating matrix is not unitary within tolerance")
    return HermSeq([um.conj().T @ c @ um for c in seq.coeffs])
