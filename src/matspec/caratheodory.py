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

The zeros of det den just outside the circle spike the density; each
quotient analyses the zeros near the circle once (`near_circle`): clusters,
Newton-polished points and the residues of num den^{-1} there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .central import GammaSeq, covariance_from_gamma
from .errors import InvalidInputError, ModelError
from .linalg import DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL, spec_norm
from .matpoly import MatPoly, MatPolyStack, det_poly
from .toeplitz import (
    HermSeq,
    Classification,
    _classification,
    _predictor,
    _rank,
    _scan,
    first_violation,
    toeplitz_matrix,
)

# Zeros of det den, or eigenvalues of the compressed shift (`measure`),
# closer than this merge into one location whose multiplicity is the
# cluster size; wide enough to absorb the eps^(1/m) companion scatter of an
# m-fold zero (about 1e-5 at m = 3) while staying far below any realistic
# atom spacing.
CLUSTER_RADIUS = 1e-4
# Zeros of det den within this distance of the circle are the poles that
# spike the density enough to size the quadrature grid; the atom tolerance
# root_tol lies below it.
NEAR_CIRCLE = 0.04


class _Residues(NamedTuple):
    """Clusters of zeros of det den near the circle, one row each."""

    members: list[np.ndarray]  # zeros of det den in each cluster
    points: np.ndarray  # (k,) polished means
    sizes: np.ndarray  # (k,) zeros in the cluster
    kernel: np.ndarray  # (k,) dimension of den's kernel at the point
    residues: np.ndarray  # (k, q, q) of num den^{-1}; NaN unless kernel == size


@dataclass(frozen=True)
class CaratheodoryQuotient:
    """Rational Caratheodory function num(z) den(z)^{-1}; its order is deg den.

    ``zeros`` (the zeros of det den) and ``near_circle`` (the analysis of the
    zeros near the circle) are derived once, when first read, for every
    consumer: the disk check and the near-circle poles.  They take
    no part in comparison or repr.  A determinant that overflows or is the
    zero polynomial does not stop construction; reading ``zeros`` raises
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

    @cached_property
    def near_circle(self) -> _Residues:
        """The zeros of det den with ||z| - 1| < NEAR_CIRCLE, clustered at
        CLUSTER_RADIUS, each cluster mean Newton-polished on den and given
        its residue of num den^{-1} (see `_cluster_residues`)."""
        zs = self.zeros
        near = zs[np.abs(np.abs(zs) - 1.0) < NEAR_CIRCLE]
        return _cluster_residues(self, [near[c] for c in _clusters(near)])


def caratheodory_first_failure(g: GammaSeq, tol: float = DEFAULT_PSD_TOL) -> int | None:
    """Smallest n with re S_n not PSD, or None when the prefix is admissible.

    re S_n equals, bit for bit, the Toeplitz matrix T_n of
    `covariance_from_gamma(g)`, so this is that sequence's `first_violation`.
    """
    return first_violation(covariance_from_gamma(g), tol)


def caratheodory_check(g: GammaSeq, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Whether every prefix satisfies re S_n >= 0 within tolerance."""
    return caratheodory_first_failure(g, tol) is None


def _check_disk(cq: CaratheodoryQuotient) -> None:
    """ModelError unless den is invertible inside the disk: det den has no
    zero z with 1 - |z| >= NEAR_CIRCLE.  The zeros nearer the circle are the
    ``near_circle`` analysis's."""
    if np.any(1.0 - np.abs(cq.zeros) >= NEAR_CIRCLE):
        raise ModelError("denominator determinant vanishes inside the disk")


def central_quotient(
    g: GammaSeq,
    n: int | None = None,
    rank_rtol: float = DEFAULT_RANK_RTOL,
    psd_tol: float = DEFAULT_PSD_TOL,
) -> CaratheodoryQuotient:
    """Numerator/denominator pair of the order-n central Caratheodory function.

    ``n`` defaults to the full stored prefix.  Order 0 yields the constant
    pair (Gamma_0, I).  Gamma_0 must be Hermitian; the prefix must pass
    `caratheodory_check`.
    """
    if n is None:
        n = len(g) - 1
    if not 0 <= n <= len(g) - 1:
        raise IndexError(f"order {n} outside stored range 0..{len(g) - 1}")
    g0 = g.coeffs[0]
    if spec_norm(g0 - g0.conj().T) > psd_tol * (1.0 + spec_norm(g0)):
        raise InvalidInputError("Gamma_0 must be Hermitian")
    t = toeplitz_matrix(covariance_from_gamma(g), n)
    scan = _scan(t, g.q, psd_tol)
    if scan.bad is not None:
        raise ModelError(f"re S_{scan.bad} not nonnegative", index=scan.bad)
    full_rank = _rank(scan.eigenvalues, rank_rtol) == len(t)
    return _central_quotient(g0, t, _predictor(t, g.q, rank_rtol, full_rank))


def _central_quotient(g0, t, w: np.ndarray) -> CaratheodoryQuotient:
    """`central_quotient` without the entry checks: num(0) = ``g0``, the
    predictor ``w`` = `_predictor` of ``t`` and the rest read off ``t`` =
    re T_n, the block Toeplitz of the covariances.  den must be invertible
    inside the disk, which `_check_disk` reads off the zeros of det den
    (ModelError otherwise)."""
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
    cq = CaratheodoryQuotient(MatPoly(num), MatPoly(den))
    _check_disk(cq)
    return cq


def pd_polynomials(seq: HermSeq) -> tuple[MatPoly, MatPoly]:
    """First-column / reversed-last-row polynomials of the inverse Toeplitz.

    For a TPD sequence C_0..C_n, with T_n^{-1} = [tau_{jk}] in q x q blocks,

        A(z) = sum_j tau_{j0} z^j,    B(z) = sum_j tau_{n,n-j} z^j.

    Both determinants are free of zeros on the closed disk, as the
    positive-definite theory guarantees; nothing here re-tests it.  A is
    `_pd_first_column`; B's blocks are the last block row of T_n^{-1}, the
    transpose of the solution X of T_n^T X = E_n with E_n the last q columns
    of the identity: two LU solves, O((nq)^3 / 3 + (nq)^2 q) each.
    """
    t, q = toeplitz_matrix(seq, len(seq) - 1), seq.q
    tol = DEFAULT_PSD_TOL
    scan = _scan(t, q, tol)
    if _classification(scan.bad, scan.margin, tol) is not Classification.TPD:
        raise ModelError("sequence is not Toeplitz-positive-definite")
    last = np.linalg.solve(t.T, np.eye(len(t))[:, -q:]).reshape(-1, q, q)
    return _pd_first_column(t, q), MatPoly(last[::-1].swapaxes(1, 2))


def _pd_first_column(t: np.ndarray, q: int) -> MatPoly:
    """A of `pd_polynomials` without the TPD check: the first block column
    of T_n^{-1}, ``t`` = T_n, from one LU solve of T_n against the first q
    columns of the identity, O((nq)^3 / 3 + (nq)^2 q)."""
    return MatPoly(np.linalg.solve(t, np.eye(len(t), q)).reshape(-1, q, q))


def rational_values(cq: CaratheodoryQuotient, zs) -> np.ndarray:
    """num(z) den(z)^{-1} at arbitrary points (no disk restriction); num and
    den from one Horner pass."""
    return _quotient_values(*MatPolyStack(cq.num, cq.den)(zs))


def _quotient_values(nv: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """num den^{-1} from the values of num and den at the same points."""
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
    """First ``count`` Taylor coefficients of num den^{-1} at the origin.

    Power-series division against den(0) = I:
    Phi_k = num_k - sum_{i<k} Phi_i den_{k-i}.
    """
    if count < 1:
        raise InvalidInputError("count must be positive")
    q = cq.num.q
    nc = cq.num.coeffs
    dc = cq.den.coeffs
    d0_inv = np.linalg.inv(dc[0])
    out = np.zeros((count, q, q), dtype=complex)
    for k in range(count):
        acc = nc[k].copy() if k < nc.shape[0] else np.zeros((q, q), dtype=complex)
        for i in range(k):
            j = k - i
            if j < dc.shape[0]:
                acc -= out[i] @ dc[j]
        out[k] = acc @ d0_inv
    return out


def _clusters(zs: np.ndarray) -> list[np.ndarray]:
    """Indices into ``zs`` of its points sorted by angle and chained into
    clusters by gaps of at most CLUSTER_RADIUS (the last cluster wraps onto
    the first)."""
    angle = [float(np.angle(z)) % (2.0 * np.pi) for z in zs]
    order = sorted(range(len(zs)), key=angle.__getitem__)
    if not order:
        return []
    clusters: list[list[int]] = [[order[0]]]
    for i in order[1:]:
        if abs(zs[i] - zs[clusters[-1][-1]]) <= CLUSTER_RADIUS:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    wrap = abs(zs[clusters[0][0]] - zs[clusters[-1][-1]]) <= CLUSTER_RADIUS
    if len(clusters) > 1 and wrap:
        clusters[0] = clusters.pop() + clusters[0]
    return [np.array(c, dtype=int) for c in clusters]


def _cluster_residues(cq: CaratheodoryQuotient, clusters) -> _Residues:
    """Residues of num den^{-1} at clusters of zeros of det den, in one batch.

    All cluster means are Newton-polished on den at once.  den, den' and num
    are evaluated at the polished points in one Horner pass and den's kernels
    come from one stacked SVD: singular values at most DEFAULT_RANK_RTOL
    times the size of den's coefficients.  Where den(p) has a kernel of the
    cluster's size m, with X and Y its right and left bases, num den^{-1}
    has a simple pole at p with residue num(p) X (Y* den'(p) X)^{-1} Y*.
    """
    sizes = np.array([len(c) for c in clusters], dtype=int)
    residues = np.full((sizes.size, cq.num.q, cq.num.q), np.nan, dtype=complex)
    if not clusters:
        return _Residues(clusters, np.empty(0, complex), sizes, sizes, residues)
    dden = cq.den.derivative()
    points = _polish(cq.den, dden, np.array([np.mean(c) for c in clusters]), sizes)
    dv, ddv, nv = MatPolyStack(cq.den, dden, cq.num)(points)
    u, s, vh = np.linalg.svd(dv)
    floor = DEFAULT_RANK_RTOL * float(np.linalg.norm(cq.den.coeffs))
    kernel = np.count_nonzero(s <= floor, axis=1)
    for m in set(sizes.tolist()):
        rows = np.nonzero((sizes == m) & (kernel == m))[0]
        if rows.size == 0:
            continue
        x = np.conj(np.swapaxes(vh[rows, -m:], -1, -2))
        yh = np.conj(np.swapaxes(u[rows, :, -m:], -1, -2))
        core = _solve_each(yh @ ddv[rows] @ x, yh)
        residues[rows] = nv[rows] @ x @ core
    return _Residues(clusters, points, sizes, kernel, residues)


def _polish(den, dden, z, m):
    """Newton on det den from each z, step m / tr(den(z)^{-1} den'(z)).

    z and m are arrays of start points and multiplicities (or scalars).  The
    step is quadratically convergent at an m-fold zero.  A point stops after
    a step at roundoff level, where den(z) is exactly singular (it has
    converged), and where a step would leave the CLUSTER_RADIUS disk around
    its start.  Each pass evaluates den and den' in one Horner pass for all
    points; the passes end when no point is left moving.
    """
    z0 = np.asarray(z, dtype=complex)
    z, live = z0.copy(), np.ones(z0.shape, dtype=bool)
    both = MatPolyStack(den, dden)
    for _ in range(8):
        t = np.trace(_solve_each(*both(z)), axis1=-2, axis2=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = m / t
        live &= np.isfinite(step) & (np.abs(z - step - z0) <= CLUSTER_RADIUS)
        z = np.where(live, z - step, z)
        live &= np.abs(step) > 1e-15 * np.abs(z)
        if not live.any():
            break
    return z


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack, NaN for each exactly singular matrix."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        pass
    out = np.full(a.shape[:-1] + b.shape[-1:], np.nan, dtype=complex)
    for idx in np.ndindex(a.shape[:-2]):
        try:
            out[idx] = np.linalg.solve(a[idx], b[idx])
        except np.linalg.LinAlgError:
            pass
    return out
