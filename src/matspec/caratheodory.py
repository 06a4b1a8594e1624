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
Fourier orders (`measure`).  One certificate (`_disk_cause`) judges the
zeros of det den for every consumer, each with its own margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .central import GammaSeq, covariance_from_gamma
from .errors import InvalidInputError, ModelError
from .linalg import DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL, spec_norm
from .matpoly import MatPoly, MatPolyStack, det_poly
from .toeplitz import (
    HermSeq,
    Classification,
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


@dataclass(frozen=True)
class CaratheodoryQuotient:
    """Rational Caratheodory function num(z) den(z)^{-1}; its order is deg den.

    ``zeros``, the zeros of det den, are derived once, when first read, by
    `_disk_cause`, which gives every verdict on them.  They take no part in
    comparison or repr.  A determinant that overflows or is the zero
    polynomial does not stop construction; reading ``zeros`` raises
    InvalidInputError.
    """

    num: MatPoly
    den: MatPoly

    @property
    def order(self) -> int:
        return self.den.degree

    @cached_property
    def zeros(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            det = det_poly(self.den)
        if det.size == 1 and det[0] == 0.0:
            raise InvalidInputError("det den is the zero polynomial")
        return np.roots(det[::-1])


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
    """The one verdict on the zeros of det den (`CaratheodoryQuotient.zeros`):
    a message naming the innermost zero when some zero z has
    |z| - 1 <= margin, else None.  `central_quotient` asks for none inside
    the disk, margin -NEAR_CIRCLE; measures and recovery for none on the
    closed disk, margin DISK_MARGIN (`measure`), which refuses every zero
    the first refuses.  |z| - 1 is exact for 1/2 <= |z| <= 2 (Sterbenz)."""
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


def central_quotient(
    g: GammaSeq,
    n: int | None = None,
    rank_rtol: float = DEFAULT_RANK_RTOL,
    psd_tol: float = DEFAULT_PSD_TOL,
) -> CaratheodoryQuotient:
    """Numerator/denominator pair of the order-n central Caratheodory function.

    ``n`` defaults to the full stored prefix.  Order 0 yields the constant
    pair (Gamma_0, I).  Gamma_0 must be Hermitian; the prefix must pass
    `caratheodory_check`.  The entry pass's one scan decides both; only
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
    cq = _central_quotient(g0, entry.t, entry.w)
    cause = _disk_cause(cq, -NEAR_CIRCLE)
    if cause is not None:
        raise ModelError(cause)
    return cq


def _central_quotient(g0, t, w: np.ndarray) -> CaratheodoryQuotient:
    """`central_quotient` without its checks: num(0) = ``g0``, the
    predictor ``w`` = `_predictor` of ``t`` and the rest read off ``t`` =
    re T_n, the block Toeplitz of the covariances.  The caller decides
    where the zeros of det den may lie."""
    q = len(g0)
    n = len(t) // q - 1
    # S_{n-1}: Gamma_{j-k} = 2 C_{j-k} in the blocks below the diagonal,
    # Gamma_0 on it, zero above
    s = (2.0 * t[:-q, :-q]).reshape(n, q, n, q).swapaxes(1, 2)
    s[np.triu_indices(n, 1)] = 0.0
    s[np.arange(n), np.arange(n)] = g0
    s = s.swapaxes(1, 2).reshape(n * q, n * q)
    u = s.conj().T @ w.reshape(n * q, q)  # block column, num coefficients 1..n
    num = [g0] + [u[k * q : (k + 1) * q] for k in range(n)]
    den = [np.eye(q, dtype=complex)] + [-w[k] for k in range(n)]
    return CaratheodoryQuotient(MatPoly(num), MatPoly(den))


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

