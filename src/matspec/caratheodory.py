"""Matrix Caratheodory functions attached to a covariance sequence.

A q x q matrix function Phi holomorphic on the open unit disk with
re Phi(z) >= 0 is a Caratheodory function; its Taylor coefficients Gamma_j
relate to the covariance coefficients by Gamma_0 = C_0, Gamma_j = 2 C_j.
Membership of a finite Gamma prefix in the class is equivalent to
re S_n >= 0 for the lower triangular block Toeplitz S_n of the Gamma's,
and re S_n is the block Toeplitz T_n of the covariance sequence
C_0 = re Gamma_0, C_j = Gamma_j / 2: the check is TND of that sequence.

The central continuation of a TND prefix has the rational Caratheodory
function Phi = num * den^{-1} with

    num(z) = Gamma_0 + z * e(z) S_{n-1}* T_{n-1}' Y_n
    den(z) = I - z * e(z) T_{n-1}' Y_n

where e(z) = (I, zI, ..., z^{n-1} I) reads the block entries as polynomial
coefficients and T' is the pseudoinverse.  Both polynomials have degree at
most n, num(0) = Gamma_0 and den(0) = I.

When det den has no zero on the closed disk, Phi is analytic across the
circle and its Taylor coefficients (`taylor_coefficients`) are the density's
Fourier orders (`measure`).  One verdict (`_disk_cause`) judges the zeros of
det den for every consumer at its margin, by a Stein certificate or by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .central import GammaSeq, covariance_from_gamma
from .errors import InvalidInputError, ModelError
from .linalg import DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL, re_mat, spec_norm
from .matpoly import MatPoly, MatPolyStack
from .toeplitz import (
    HermSeq,
    Classification,
    _cholesky_clears,
    _classification,
    _enter,
    _recur,
    _scan,
    first_violation,
    toeplitz_matrix,
)

# The det den of `central_quotient` may have no zero z with
# |z| <= 1 - NEAR_CIRCLE (`_disk_cause` with margin -NEAR_CIRCLE); the atom
# tolerance root_tol lies below it.
NEAR_CIRCLE = 0.04
# Recovery needs every zero z of det den at |z| > 1 + DISK_MARGIN.  Where the
# Stein certificate cannot prove it, eig of den's block companion moves a simple
# zero by about eps cond: 1e-10 still admits AR(1) with rho = 1 - 1e-9.
DISK_MARGIN = 1e-10


@dataclass(frozen=True)
class CaratheodoryQuotient:
    """Rational Caratheodory function num(z) den(z)^{-1}; its order is deg den.

    ``zeros`` of det den, derived when first read, are the reciprocal nonzero
    eigenvalues (0 is a lost degree) of one eig of the block companion of the
    trimmed den with den_0^{-1} folded in; a singular den_0 gives its zero at
    0 alone, the innermost.  InvalidInputError when det den is the zero
    polynomial (den singular at q deg den + 1 roots of unity) or den_0^{-1}
    den overflows.  They and ``_certified`` take no part in == or repr.
    """

    num: MatPoly
    den: MatPoly
    _certified = -np.inf  # every zero has |z| - 1 > _certified

    @property
    def order(self) -> int:
        return self.den.degree

    @cached_property
    def zeros(self) -> np.ndarray:
        den = self.den.trim()
        d, q = den.degree, den.q
        try:
            fold = np.linalg.solve(den.coeffs[0], den.coeffs)
        except np.linalg.LinAlgError:
            nodes = np.exp(2j * np.pi * np.arange(q * d + 1) / (q * d + 1))
            if not np.any(np.linalg.det(den(nodes))):
                raise InvalidInputError("det den is the zero polynomial") from None
            return np.zeros(1, dtype=complex)
        if not np.all(np.isfinite(fold)):
            raise InvalidInputError("den_0^-1 den overflows")
        if d == 0:
            return np.zeros(0, dtype=complex)
        f = np.eye(d * q, k=q, dtype=complex)
        f[:, :q] = -fold[1:].reshape(d * q, q)
        lam = np.linalg.eigvals(f)
        return 1.0 / lam[lam != 0.0]


def caratheodory_first_failure(g: GammaSeq, tol: float = DEFAULT_PSD_TOL) -> int | None:
    """Smallest n with re S_n not PSD, or None when the prefix is admissible.

    re S_n equals, bit for bit, the Toeplitz matrix T_n of
    `covariance_from_gamma(g)`, so this is that sequence's `first_violation`.
    """
    return first_violation(covariance_from_gamma(g), tol)


def caratheodory_check(g: GammaSeq, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Whether every prefix satisfies re S_n >= 0 within tolerance."""
    return caratheodory_first_failure(g, tol) is None


def _disk_cause(cq: CaratheodoryQuotient, margin: float) -> str | None:
    """The one verdict on the zeros z of det den: None when the Stein
    certificate covers ``margin`` or no zero has |z| - 1 <= margin, else a
    message naming the innermost such zero.  `central_quotient` asks for
    none inside the disk, margin -NEAR_CIRCLE; measures and recovery for none
    on the closed disk, margin DISK_MARGIN, which refuses every zero the
    first refuses.  |z| - 1 is exact for 1/2 <= |z| <= 2 (Sterbenz)."""
    if margin <= cq._certified:
        return None
    zs = cq.zeros
    bad = zs[np.abs(zs) - 1.0 <= margin]
    if bad.size == 0:
        return None
    # + 0j turns a signed zero imaginary part into +0, so 1 reads 1+0j
    z = complex(bad[np.argmin(np.abs(bad))]) + 0j
    return (
        f"zero of det den at {z:.6g} (|z| - 1 = {abs(z) - 1.0:.3e}) is not "
        f"certified outside the closed disk (margin {margin:.0e})"
    )


def _require_disk(cq: CaratheodoryQuotient | None, margin: float) -> None:
    """ModelError naming the cause unless `_disk_cause` clears ``cq`` (if any)."""
    cause = None if cq is None else _disk_cause(cq, margin)
    if cause is not None:
        raise ModelError(cause)


def central_quotient(
    g: GammaSeq,
    n: int | None = None,
    rank_rtol: float = DEFAULT_RANK_RTOL,
    psd_tol: float = DEFAULT_PSD_TOL,
) -> CaratheodoryQuotient:
    """Numerator/denominator pair of the order-n central Caratheodory function.

    ``n`` defaults to the full stored prefix.  Order 0 yields the constant
    pair (Gamma_0, I).  Gamma_0 must be Hermitian; the prefix must pass
    `caratheodory_check`.  The entry pass (`_enter`) decides both; only
    when T_0 fails is Gamma_0's Hermiticity read again, for the error type.
    den must be invertible inside the disk: `_disk_cause` with margin
    -NEAR_CIRCLE, whose ModelError names the innermost zero of det den.
    """
    if n is None:
        n = len(g) - 1
    if not 0 <= n <= len(g) - 1:
        raise IndexError(f"order {n} outside stored range 0..{len(g) - 1}")
    g0 = g.coeffs[0]
    # C_0 = Gamma_0 as given: the scan tests its Hermiticity, and re T_n is
    # that of covariance_from_gamma(g)
    cov = HermSeq([g0] + [0.5 * c for c in g.coeffs[1 : n + 1]])
    try:
        entry = _enter(toeplitz_matrix(cov, n), g.q, psd_tol, rank_rtol)
    except ModelError as exc:
        if exc.index is None:  # not the scan's
            raise
        if exc.index == 0 and spec_norm(g0 - g0.conj().T) > psd_tol * (1.0 + spec_norm(g0)):
            raise InvalidInputError("Gamma_0 must be Hermitian") from exc
        raise ModelError(f"re S_{exc.index} not nonnegative", index=exc.index) from exc
    cq = _central_quotient(g0, entry.t, entry.w, entry.cleared)
    _require_disk(cq, -NEAR_CIRCLE)
    return cq


def _central_quotient(g0, t, w: np.ndarray, psd: bool = False) -> CaratheodoryQuotient:
    """`central_quotient` without its checks: num(0) = ``g0``, the
    predictor ``w`` = `_predictor` of ``t`` and the rest read off ``t`` =
    re T_n, the block Toeplitz of the covariances; it records whether
    `_stein_delta` certifies its zeros (``psd``: `_enter` proved
    re T_{n-1} >= 0), and the caller judges them.
    num_m = sum_{i=m..n} Gamma_{i-m}* w_i, block m of S_{n-1}* w, is one
    product per order of a prefix of re T_n's first block row C_0, C_1*, ...,
    doubled with Gamma_0* over its first block, and w_m, ..., w_n."""
    q = len(g0)
    n = len(t) // q - 1
    row = np.hstack([g0.conj().T, 2.0 * t[:q, q:-q]])
    stacked = w.reshape(n * q, q)
    num = [g0] + [row[:, : (n - k) * q] @ stacked[k * q :] for k in range(n)]
    den = [np.eye(q, dtype=complex)] + [-w[k] for k in range(n)]
    cq = CaratheodoryQuotient(MatPoly(num), MatPoly(den))
    if n and _stein_delta(t[:-q, :-q], w, psd) > 2.0 * DISK_MARGIN:
        object.__setattr__(cq, "_certified", DISK_MARGIN)
    return cq


def _stein_delta(p: np.ndarray, w: np.ndarray, psd: bool = False) -> float:
    """delta of the Stein certificate on den = I - sum_m w_m z^m, from
    ``p`` = P = re T_{n-1}, Hermitian and block Toeplitz; -inf when the
    Cholesky of P fails.  delta > 2 DISK_MARGIN proves every zero z of det
    den has |z| > 1 + DISK_MARGIN, from (1 - |lam|^2) v* P v = v* D v for
    each eigenpair F v = lam v of den's block companion F, D = P - F* P F
    (README, "The Stein certificate").  D holds the Yule-Walker residual R_1
    off its leading block, C_0 - W* P W.  One Cholesky, O((nq)^3 / 3),
    none when ``psd``, the entry's proof of P >= 0.
    """
    n, q = w.shape[:2]
    if not (psd or _cholesky_clears(p, 0.0)):
        return -np.inf
    stacked = w.reshape(n * q, q)
    pw = p @ stacked
    sigma_low = np.linalg.eigvalsh(re_mat(p[:q, :q] - stacked.conj().T @ pw))[0]
    tails = np.cumsum(np.linalg.norm(w, axis=(1, 2))[::-1])[::-1]  # sum_{m>=i} ||w_m||_F
    kappa = (1.0 + DISK_MARGIN) ** (2 * n) * (1.0 + np.sum(tails[1:] ** 2))
    size, big = np.linalg.norm(p), (n * q + 1) ** 2 * np.finfo(float).eps
    r_1 = np.linalg.norm(p[q:, :q] - pw[:-q])
    eta = np.sqrt(2.0) * r_1 + 10.0 * big * size * (1.0 + tails[0]) ** 2
    return float((sigma_low / kappa - eta) / (size + 2.0 * big * size))  # ||P||_F + mu


def pd_polynomials(seq: HermSeq) -> tuple[MatPoly, MatPoly]:
    """First-column / reversed-last-row polynomials of the inverse Toeplitz.

    For a TPD sequence C_0..C_n, with T_n^{-1} = [tau_{jk}] in q x q blocks,

        A(z) = sum_j tau_{j0} z^j,    B(z) = sum_j tau_{n,n-j} z^j.

    Both determinants are free of zeros on the closed disk, as the
    positive-definite theory guarantees; nothing here re-tests it.  A's
    blocks are the first block column of T_n^{-1}, from one LU solve of T_n
    against the first q columns of the identity; B's are the last block row,
    the transpose of the solution X of T_n^T X = E_n with E_n the last q
    columns of the identity: two LU solves, O((nq)^3 / 3 + (nq)^2 q) each.
    """
    t, q = toeplitz_matrix(seq, len(seq) - 1), seq.q
    tol = DEFAULT_PSD_TOL
    scan = _scan(t, q, tol)
    if _classification(scan.bad, scan.margin, tol) is not Classification.TPD:
        raise ModelError("sequence is not Toeplitz-positive-definite")
    first = np.linalg.solve(t, np.eye(len(t), q)).reshape(-1, q, q)
    last = np.linalg.solve(t.T, np.eye(len(t))[:, -q:]).reshape(-1, q, q)
    return MatPoly(first), MatPoly(last[::-1].swapaxes(1, 2))


def rational_values(cq: CaratheodoryQuotient, zs) -> np.ndarray:
    """num(z) den(z)^{-1} at arbitrary points (no disk restriction); num and
    den from one Horner pass."""
    nv, dv = MatPolyStack(cq.num, cq.den)(zs)
    try:
        # Phi den = num  <=>  den^T Phi^T = num^T
        sol = np.linalg.solve(np.swapaxes(dv, -1, -2), np.swapaxes(nv, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"denominator numerically singular: {exc}") from exc
    return np.swapaxes(sol, -1, -2)


def _disk_point(z) -> complex:
    """z as a complex number of the open unit disk, else InvalidInputError."""
    zp = complex(z)
    if not np.isfinite(zp):
        raise InvalidInputError(f"z = {zp} is not finite")
    if abs(zp) >= 1.0:
        raise InvalidInputError(f"|z| = {abs(zp)} not inside the open unit disk")
    return zp


def phi_at(cq: CaratheodoryQuotient, z: complex) -> np.ndarray:
    """Caratheodory function value at a point of the open unit disk."""
    return rational_values(cq, _disk_point(z))


def taylor_coefficients(cq: CaratheodoryQuotient, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of num den^{-1} at the origin;
    shape (count, q, q).

    One recurrence, read off Phi den = num:
    Phi_k = (num_k - sum_{i=1..min(k, d)} Phi_{k-i} den_i) den_0^{-1}, d = deg den.
    den_0^{-1} is folded into num and den once (den_0 = I for every central
    and deflated quotient), so each step is one (q, dq) by (dq, q) product
    with the last d coefficients (`toeplitz._recur`, which the central
    extension also runs): O(count d q^3) in all.  A singular den_0 is an
    InvalidInputError: num den^{-1} then has no Taylor series at 0.
    """
    if count < 1:
        raise InvalidInputError("count must be positive")
    q = cq.num.q
    nc, dc = cq.num.coeffs[:count], cq.den.coeffs
    d = dc.shape[0] - 1
    try:
        d0_inv = np.linalg.inv(dc[0])
    except np.linalg.LinAlgError as exc:
        raise InvalidInputError("den(0) is singular: num den^-1 has no Taylor series at 0") from exc
    # block d + k of the row holds Phi_k, forced by num_k den_0^{-1}; the d
    # leading blocks are zero, so step k reads Phi_{k-d}, ..., Phi_{k-1}
    row = np.zeros((q, (d + count) * q), dtype=complex)
    row[:, d * q : (d + nc.shape[0]) * q] = np.hstack(nc @ d0_inv)
    # taps -den_d, ..., -den_1 times den_0^{-1}, stacked into (dq, q)
    _recur(row, -(dc[:0:-1] @ d0_inv).reshape(d * q, q), d)
    return row[:, d * q :].reshape(q, count, q).swapaxes(0, 1)

