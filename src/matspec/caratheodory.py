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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .central import GammaSeq, covariance_from_gamma
from .errors import InvalidInputError, ModelError, NoLimitError
from .linalg import DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL, spec_norm
from .matpoly import MatPoly, det_poly, poly_eval
from .toeplitz import (
    HermSeq,
    Classification,
    _classification,
    _predictor,
    _scan,
    first_violation,
    toeplitz_matrix,
)

# Radial points r = 1 - 2^{-k}, k = 1..RADIAL_STEPS, of `radial_atom_limit`.
RADIAL_STEPS = 12


@dataclass(frozen=True)
class CaratheodoryQuotient:
    """Rational Caratheodory function num(z) den(z)^{-1} of a given order.

    ``det`` (scalar coefficients of det den, lowest degree first) and
    ``zeros`` (its zeros) are derived once here, for every consumer: the
    disk check, the atoms and the near-circle poles.  They take no part in
    comparison or repr.  A determinant that overflows does not stop
    construction; `_det_zeros` rejects it where it is first needed.
    """

    num: MatPoly
    den: MatPoly
    order: int
    det: np.ndarray | None = field(init=False, repr=False, compare=False)
    zeros: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                det = det_poly(self.den)
        except InvalidInputError:
            det = zeros = None
        else:
            zeros = np.roots(det[::-1]) if det.size > 1 else np.empty(0, complex)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "zeros", zeros)

    def _det_zeros(self) -> tuple[np.ndarray, np.ndarray]:
        """(det, zeros); raises InvalidInputError if det den overflowed."""
        if self.det is None:
            raise InvalidInputError("polynomial has non-finite coefficients")
        return self.det, self.zeros


def caratheodory_first_failure(g: GammaSeq, tol: float = DEFAULT_PSD_TOL) -> int | None:
    """Smallest n with re S_n not PSD, or None when the prefix is admissible.

    re S_n equals, bit for bit, the Toeplitz matrix T_n of
    `covariance_from_gamma(g)`, so this is that sequence's `first_violation`.
    """
    return first_violation(covariance_from_gamma(g), tol)


def caratheodory_check(g: GammaSeq, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Whether every prefix satisfies re S_n >= 0 within tolerance."""
    return caratheodory_first_failure(g, tol) is None


def _spot_check_disk(cq: CaratheodoryQuotient) -> None:
    # den must be invertible inside the disk; sample well away from the rim.
    db, _ = cq._det_zeros()
    radii = np.array([0.0, 0.35, 0.65, 0.9])
    angles = np.exp(2j * np.pi * (np.arange(24) + 0.5) / 24)
    pts = (radii[:, None] * angles[None, :]).ravel()
    vals = poly_eval(db, pts)
    floor = 1e-12 * (1.0 + float(np.max(np.abs(db))))
    if np.min(np.abs(vals)) <= floor:
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
    bad = _scan(t, g.q, psd_tol)[0]
    if bad is not None:
        raise ModelError(f"re S_{bad} not nonnegative", index=bad)
    return _central_quotient(g0, t, rank_rtol)


def _central_quotient(g0, t, rank_rtol: float) -> CaratheodoryQuotient:
    """`central_quotient` without the entry checks: num(0) = ``g0`` and the
    rest read off ``t`` = re T_n, the block Toeplitz of the covariances."""
    q = len(g0)
    n = len(t) // q - 1
    eye = np.eye(q, dtype=complex)
    if n == 0:
        return CaratheodoryQuotient(MatPoly([g0]), MatPoly([eye]), 0)
    w = _predictor(t, q, rank_rtol)
    # S_{n-1}: Gamma_{j-k} = 2 C_{j-k} in the blocks below the diagonal,
    # Gamma_0 on it, zero above
    s = (2.0 * t[:-q, :-q]).reshape(n, q, n, q).swapaxes(1, 2)
    s[np.triu_indices(n, 1)] = 0.0
    s[np.arange(n), np.arange(n)] = g0
    s = s.swapaxes(1, 2).reshape(n * q, n * q)
    u = s.conj().T @ w.reshape(n * q, q)  # block column, num coefficients 1..n
    num = [g0] + [u[k * q : (k + 1) * q] for k in range(n)]
    den = [eye] + [-w[k] for k in range(n)]
    cq = CaratheodoryQuotient(MatPoly(num), MatPoly(den), n)
    _spot_check_disk(cq)
    return cq


def pd_polynomials(seq: HermSeq) -> tuple[MatPoly, MatPoly]:
    """First-column / reversed-last-row polynomials of the inverse Toeplitz.

    For a TPD sequence C_0..C_n, with T_n^{-1} = [tau_{jk}] in q x q blocks,

        A(z) = sum_j tau_{j0} z^j,    B(z) = sum_j tau_{n,n-j} z^j.

    Both determinants are verified nonvanishing on the closed disk sample
    grid, as the positive-definite theory requires.
    """
    t = toeplitz_matrix(seq, len(seq) - 1)
    tol = DEFAULT_PSD_TOL
    if _classification(*_scan(t, seq.q, tol), tol) is not Classification.TPD:
        raise ModelError("sequence is not Toeplitz-positive-definite")
    return _pd_polynomials(t, seq.q)


def _pd_polynomials(t: np.ndarray, q: int) -> tuple[MatPoly, MatPoly]:
    """`pd_polynomials` without the TPD check, from ``t`` = T_n."""
    n = len(t) // q - 1
    tinv = np.linalg.inv(t)
    a = [tinv[j * q : (j + 1) * q, 0:q] for j in range(n + 1)]
    b = [tinv[n * q : (n + 1) * q, (n - j) * q : (n - j + 1) * q] for j in range(n + 1)]
    pa, pb = MatPoly(a), MatPoly(b)
    for poly, name in ((pa, "first-column"), (pb, "last-row")):
        dp = det_poly(poly)
        radii = np.array([0.0, 0.35, 0.65, 0.9, 1.0])
        angles = np.exp(2j * np.pi * (np.arange(24) + 0.5) / 24)
        pts = (radii[:, None] * angles[None, :]).ravel()
        floor = 1e-12 * float(np.max(np.abs(dp)))
        if np.min(np.abs(poly_eval(dp, pts))) <= floor:
            raise ModelError(f"{name} polynomial determinant vanishes on the disk")
    return pa, pb


def rational_values(cq: CaratheodoryQuotient, zs) -> np.ndarray:
    """num(z) den(z)^{-1} at arbitrary points (no disk restriction)."""
    zarr = np.asarray(zs, dtype=complex)
    nv = cq.num(zarr)
    dv = cq.den(zarr)
    try:
        # Phi den = num  <=>  den^T Phi^T = num^T
        sol = np.linalg.solve(np.swapaxes(dv, -1, -2), np.swapaxes(nv, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"denominator numerically singular: {exc}") from exc
    return np.swapaxes(sol, -1, -2)


def phi_at(cq: CaratheodoryQuotient, z: complex) -> np.ndarray:
    """Caratheodory function value at a point of the open unit disk."""
    if abs(z) >= 1.0:
        raise InvalidInputError(f"|z| = {abs(z)} not inside the open unit disk")
    return rational_values(cq, complex(z))


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


def radial_atom_limit(cq: CaratheodoryQuotient, u: complex) -> np.ndarray:
    """Point mass of the underlying measure at a unimodular point u.

    Evaluates (1 - r)/2 * Phi(r u) along r = 1 - 2^{-k}, k = 1..RADIAL_STEPS,
    and removes the linear and quadratic error terms by Richardson
    extrapolation.  Returns (numerically) zero when u carries no atom.
    """
    if abs(abs(u) - 1.0) > 1e-8:
        raise InvalidInputError(f"|u| = {abs(u)} is not on the unit circle")
    u = complex(u) / abs(u)
    eps = 0.5 ** np.arange(1, RADIAL_STEPS + 1)
    pts = (1.0 - eps) * u
    vals = rational_values(cq, pts) * (eps[:, None, None] / 2.0)
    first = 2.0 * vals[1:] - vals[:-1]
    second = (4.0 * first[1:] - first[:-1]) / 3.0
    answer = second[-1]
    spread = spec_norm(second[-1] - second[-2])
    if spread > 1e-6 * (1.0 + max(spec_norm(answer), spec_norm(vals[-1]))):
        raise NoLimitError(
            f"radial limit at {u} did not stabilize (spread {spread:.3e})"
        )
    return answer
