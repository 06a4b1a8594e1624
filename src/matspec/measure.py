"""Explicit spectral measures: point masses plus absolutely continuous density.

The central continuation of a TND sequence is the Fourier-coefficient
sequence of a unique positive matrix measure on the unit circle.  That
measure decomposes as

    mu = (1/2pi) re Phi(zeta) dtheta  +  sum_v  X_v delta_v,

with the point masses X_v at unimodular v and Phi = num den^{-1} the
central Caratheodory quotient of the deflated data
C'_j = C_j - sum_v v^{-j} X_v, the moments of the absolutely continuous
part.  Everything here computes that decomposition and checks it by
recovering the Fourier coefficients.

One route finds the atoms.  Full-rank T_n has none: den is then invertible
on the closed disk.  For singular T_n, with T_{n-1} = U_r diag(s_r) U_r*
from the predictor's one SVD, B = U_r s_r^{-1/2} and G = (U_r s_r^{1/2})[:q],
the compressed shift W = B* S B, S = T_n[q:, :-q] the blocks C_{j-k+1},
compresses multiplication by z to the polynomials of degree < n in
L^2(mu), so it is a contraction.  Its eigenvectors with unimodular
eigenvalues span its unitary part, which reduces W (Sz.-Nagy and Foias,
Harmonic Analysis of Operators on Hilbert Space, 1970, ch. I): those
eigenvalues, conjugated, are the atoms, and the weight at v is
X_v = G P_v G*, P_v the orthogonal projector onto the eigenvectors of its
cluster (Jones, Njastad and Thron, Bull. LMS 21, 1989; Pisarenko, 1973).
When the unitary part is all of W, as for rank-frozen data
(rank T_n = rank T_{n-1}), the measure is purely atomic and has no
quotient.  Being normal, the unitary part is found with Hermitian
eigensolvers (`_unitary_part`), not a general eig of W.

Recovery needs no grid.  When det den has no zero on the closed disk, Phi
is analytic across the circle, and the Schwarz (Herglotz) formula gives the
density's orders from Phi's Taylor coefficients: C_0 = re Phi_0,
C_j = Phi_j / 2 for j > 0 and C_{-j} = C_j*, and its Herglotz transform is
Phi(z) - (Phi(0) - Phi(0)*) / 2 (Simon, Orthogonal Polynomials on the Unit
Circle, Part 1, 2005, ch. 1).  The point masses add their moments in closed
form.  `_disk_cause` at margin DISK_MARGIN judges the premise, from the
quotient's Stein certificate or its zeros; a quotient that fails it never
verifies, and `central_measure` raises rather than return one.  A measure without a
quotient has no density: every coefficient and Herglotz value is a
closed-form sum over its atoms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .caratheodory import (
    DISK_MARGIN,
    NEAR_CIRCLE,
    CaratheodoryQuotient,
    _central_quotient,
    _disk_cause,
    _disk_point,
    _require_disk,
    rational_values,
    taylor_coefficients,
)
from .central import CENTRAL_TOL
from .errors import DimensionError, InvalidInputError
from .linalg import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_RTOL,
    _eig,
    _pow2_scaled,
    _spec_norms,
    as_cmatrix,
    re_mat,
    spec_norm,
)
from .toeplitz import (
    HermSeq,
    _continue,
    _debug_logger,
    _enter,
    _Entry,
    _re_toeplitz,
    _refined_solve,
    _unit_scaled,
    toeplitz_matrix,
)

# Eigenvalues lambda of the compressed shift with ||lambda| - 1| <= root_tol
# count as unimodular.
DEFAULT_ROOT_TOL = 1e-7
# Atoms with ||X_v|| <= ATOM_DROP*||C_0|| are dropped.
ATOM_DROP = 1e-10
# An atom location or density point z needs ||z| - 1| <= CIRCLE_TOL.
CIRCLE_TOL = 1e-8
TWO_PI = 2.0 * np.pi


class ArOrderMismatchWarning(UserWarning):
    """Stored coefficients disagree with the central extension of the prefix."""


@dataclass(frozen=True)
class Atom:
    """Point mass: unimodular location and Hermitian PSD weight matrix."""

    point: complex
    weight: np.ndarray


@dataclass(frozen=True)
class SpectralMeasure:
    """Positive matrix measure given by atoms plus a rational density.

    ``quotient`` is the Caratheodory quotient of the absolutely continuous
    part alone, so it has no pole at an atom.  It is None exactly for purely
    atomic measures: those of `atomic_measure` and the central measures
    whose compressed shift has only unimodular eigenvalues.  Their density
    is identically zero.
    """

    q: int
    atoms: tuple[Atom, ...]
    quotient: CaratheodoryQuotient | None

    def atom_points(self) -> np.ndarray:
        return np.array([a.point for a in self.atoms], dtype=complex)

    def density_grid(self, angles) -> np.ndarray:
        """Density values at a real array of N unit-circle angles, read flat;
        shape (N, q, q)."""
        try:
            ang = np.asarray(angles).astype(float, casting="same_kind").ravel()
        except (TypeError, ValueError) as exc:  # complex, non-numeric or ragged
            raise InvalidInputError("density angles must be real numbers") from exc
        if not np.all(np.isfinite(ang)):
            raise InvalidInputError("density angles must be finite")
        return _density_on_circle(self, np.exp(1j * ang))


def _density_on_circle(sm: SpectralMeasure, zs: np.ndarray) -> np.ndarray:
    """(1/2pi) re num den^{-1} at the unit-circle points zs; shape (N, q, q).
    A measure without a quotient has zero density."""
    if sm.quotient is None:
        return np.zeros(zs.shape + (sm.q, sm.q), dtype=complex)
    return _re_density(rational_values(sm.quotient, zs))


def _re_density(phi: np.ndarray) -> np.ndarray:
    """(1/2pi) re phi = (phi + phi*) / 4pi over a stack of q x q values."""
    return re_mat(phi) / TWO_PI


def _on_circle(z, where: str) -> complex:
    """z as a finite complex number within CIRCLE_TOL of the unit circle,
    else InvalidInputError naming ``where``."""
    z = complex(z)
    if not np.isfinite(z):
        raise InvalidInputError(f"{where} = {z} is not finite")
    if abs(abs(z) - 1.0) > CIRCLE_TOL:
        raise InvalidInputError(f"|{where}| = {abs(z)} is not on the unit circle")
    return z


def _circle_point(zeta) -> np.ndarray:
    """zeta, on the circle (`_on_circle`), projected onto it as a 1-element
    array."""
    z = _on_circle(zeta, "zeta")
    return np.array([z / abs(z)])


def density_at(sm: SpectralMeasure, zeta: complex) -> np.ndarray:
    """Density value at one unit-circle point (Hermitian q x q)."""
    return _density_on_circle(sm, _circle_point(zeta))[0]


def _check_root_tol(root_tol: float) -> None:
    if not 0.0 <= root_tol < NEAR_CIRCLE:
        raise InvalidInputError(f"root_tol {root_tol} must lie in [0, {NEAR_CIRCLE})")


# Gaps wider than this between the ascending eigenvalues cos(theta) of
# (W + W*) / 2 split a unitary shift into blocks.  An eigenvalue and its
# conjugate share a block, and so do eigenvalues under 1e-3 apart, whose
# cosines differ by less.
_SPLIT_GAP = 1e-3


def _unitary_part(
    w: np.ndarray, root_tol: float, frozen: bool
) -> tuple[np.ndarray, np.ndarray, str, int]:
    """Eigenvalues of the compressed shift W within root_tol of the circle,
    their eigenvectors (r, k), the route that found them and the size of its
    widest eig (r for the fallback).

    W's unitary part is normal and reduces W (Sz.-Nagy and Foias, 1970,
    ch. I), so Hermitian eigensolvers find it.  On rank-frozen data it is all
    of W: one eigh of (W + W*) / 2, whose eigenvalues are cos(theta), is
    split at gaps wider than _SPLIT_GAP, and the blocks' V_b* W V_b take one
    stacked eig per block size.  Otherwise it is the eigenvalue-1 space K of
    W^{*m} W^m, W^m by repeated squaring, read off one eigh as the
    eigenvalues above 1/2 (an empty K answers at once), and K* W K takes the
    frozen route.  m is first the power of two >= r, then
    2^floor(log2(ln 2 / (2 root_tol))), at which an eigenvalue of modulus
    1 - root_tol maps to 1/2, so that the split classifies eigenvalues as
    the modulus test does.  A result stands when K
    and the blocks are invariant, ||W K - K (K* W K)||_F <= root_tol and
    likewise for the blocks, and every eigenvalue lies within root_tol of the
    circle.  Else, and for root_tol = 0, one eig of W filtered by the modulus
    test answers ("eig fallback").  Cost O(r^3) on frozen data, O(r^3 log m)
    otherwise, with one eigh of size r per try.
    """
    r = len(w)
    tries: list[int | None] = []
    if root_tol > 0.0:
        deep = math.floor(math.log2(0.5 * math.log(2.0)) - math.log2(root_tol))
        tries = [None] if frozen else sorted({min((r - 1).bit_length(), deep), deep})
    power, squarings = w, 0
    for depth in tries:
        basis, wk = None, w
        if depth is not None:
            while squarings < depth:
                power, squarings = power @ power, squarings + 1
            g, vg = _eig(power.conj().T @ power, hermitian=True)
            keep = g > 0.5
            if not keep.any():  # no unitary part: nothing to certify
                return np.empty(0, dtype=complex), vg[:, keep], "hermitian", 0
            m = vg.conj().T @ w @ vg
            if np.linalg.norm(m[np.ix_(~keep, keep)]) > root_tol:
                continue
            basis, wk = vg[:, keep], m[np.ix_(keep, keep)]
        cos, v = _eig(re_mat(wk), hermitian=True)
        starts = np.flatnonzero(np.diff(cos, prepend=-np.inf) > _SPLIT_GAP)
        sizes = np.diff(starts, append=cos.size)
        m = v.conj().T @ wk @ v
        block = np.repeat(np.arange(sizes.size), sizes)
        if np.linalg.norm(np.where(block[:, None] == block[None, :], 0.0, m)) > root_tol:
            continue
        lam, y = np.empty(cos.size, dtype=complex), np.zeros_like(m)
        for size in set(sizes.tolist()):
            rows = starts[sizes == size][:, None] + np.arange(size)
            lam[rows], y[rows[:, :, None], rows[:, None, :]] = _eig(
                m[rows[:, :, None], rows[:, None, :]]
            )
        if np.all(np.abs(np.abs(lam) - 1.0) <= root_tol):
            vec = v @ y
            if basis is not None:
                vec = basis @ vec
            return lam, vec, "hermitian", int(sizes.max(initial=0))
    lam, vec = _eig(w)
    unitary = np.abs(np.abs(lam) - 1.0) <= root_tol
    return lam[unitary], vec[:, unitary], "eig fallback", r


# Eigenvalues of the compressed shift closer than this merge into one atom;
# wide enough to absorb the eps^(1/m) scatter of an m-fold eigenvalue from
# eig (about 1e-5 at m = 3) while staying far below any realistic atom
# spacing.
CLUSTER_RADIUS = 1e-4


def _clusters(points: np.ndarray) -> list[np.ndarray]:
    """Indices into ``points`` chained into clusters by gaps of at most
    CLUSTER_RADIUS, in atom order: one stable sort by angle in [0, 2pi), a
    point within CLUSTER_RADIUS below 2pi counting as just below 0 (an atom
    at 1 comes first whatever the sign of its roundoff), one split at the
    wider gaps, and the last cluster wraps onto the first."""
    if points.size == 0:
        return []
    angle = np.angle(points) % TWO_PI
    wrapped = np.where(angle > TWO_PI - CLUSTER_RADIUS, angle - TWO_PI, angle)
    order = np.argsort(wrapped, kind="stable")
    chain = points[order]
    clusters = np.split(order, np.flatnonzero(np.abs(np.diff(chain)) > CLUSTER_RADIUS) + 1)
    if len(clusters) > 1 and abs(chain[0] - chain[-1]) <= CLUSTER_RADIUS:
        clusters[0] = np.concatenate([clusters.pop(), clusters[0]])
    return clusters


def _shift_atoms(entry: _Entry, q: int, root_tol: float) -> tuple[tuple[Atom, ...], int, str, int]:
    """Atoms of singular data from the compressed shift W, the dimension of
    W's unitary part, and the route and widest eig of `_unitary_part`.

    ``entry`` holds re T_n, ||C_0||, rank T_n and the predictor's SVD
    T_{n-1} = U_r diag(s_r) U_r*; rank T_n = rank T_{n-1} = r says T_n is
    rank-frozen, and then W is unitary.  With
    B = U_r s_r^{-1/2}, W = B* T_n[q:, :-q] B; its eigenvalues within
    root_tol of the circle span the unitary part (`_unitary_part`), and
    conjugated they are the atoms, clustered and ordered by `_clusters`.
    The weight of a cluster is G P G* = (G Q)(G Q)*, G = (U_r s_r^{1/2})[:q]
    and Q an orthonormal basis of the cluster's eigenvectors, from one
    stacked QR per cluster size, so P = Q Q* is the orthogonal projector
    onto them.  A Gram matrix is PSD: its Hermitian part is the weight with
    no eigenvalue to clip, its eigenvalues are at least -O(r q eps) ||C_0||
    (||G||^2 <= ||C_0||), and its spectral norm is its largest eigenvalue.
    Atoms with ||X_v|| <= ATOM_DROP ||C_0|| (removable singularities) are
    dropped.  Cost O(n q r^2) plus `_unitary_part`'s.
    """
    root = np.sqrt(entry.s_r)
    b = entry.u_r / root
    shift = b.conj().T @ entry.t[q:, :-q] @ b
    lam, vec, route, widest = _unitary_part(shift, root_tol, entry.rank == entry.s_r.size)
    points = np.conj(lam)
    clusters = _clusters(points)
    sizes = np.array([c.size for c in clusters])
    g = entry.u_r[:q] * root
    means = np.empty(sizes.size, dtype=complex)
    weights = np.empty((sizes.size, q, q), dtype=complex)
    for m in set(sizes.tolist()):
        rows = np.nonzero(sizes == m)[0]
        members = np.array([clusters[k] for k in rows])
        means[rows] = points[members].mean(axis=1)
        # the eigenvectors of one cluster need not be orthogonal
        basis = np.linalg.qr(vec[:, members].transpose(1, 0, 2))[0]
        gb = g @ basis
        weights[rows] = gb @ np.conj(np.swapaxes(gb, -1, -2))
    weights = re_mat(weights)
    keep = _spec_norms(weights) > ATOM_DROP * entry.c0_norm
    points = means[keep] / np.abs(means[keep])
    atoms = tuple(Atom(point=complex(v), weight=w) for v, w in zip(points, weights[keep]))
    return atoms, lam.size, route, widest


def central_measure(
    seq: HermSeq,
    psd_tol: float = DEFAULT_PSD_TOL,
    rank_rtol: float = DEFAULT_RANK_RTOL,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> SpectralMeasure:
    """Spectral measure of the central continuation of a TND sequence.

    A length-1 sequence yields the constant density C_0/(2pi) with no atoms.
    Full-rank T_n (rank counted with the rank_rtol cutoff) has no atoms and
    its quotient is the central one.  Singular T_n takes its atoms from the
    eigenvalues of the compressed shift within root_tol of the circle
    (`_shift_atoms`); when they are all of its eigenvalues, as for
    rank-frozen data, the measure is purely atomic with no quotient, and
    otherwise its quotient is the central quotient of the deflated data
    C'_j = C_j - sum_v v^{-j} X_v, which is the data itself when no atom
    is found.

    A measure is returned only when `_disk_cause` at margin DISK_MARGIN
    certifies its quotient's zeros of det den outside the closed disk, the
    premise of `verify_recovery`'s closed form; otherwise ModelError names
    the zero.  It refuses every zero `central_quotient` refuses, and it is
    the one check a central measure needs: its density is
    den^{-*} H den^{-1} / 2pi with H constant by construction (Whittle,
    Biometrika 50, 1963), so its inverse is a matrix trigonometric
    polynomial of degree at most n, and a measure of that form that
    recovers C_0..C_n is the central one (Dym and Gohberg, Linear Algebra
    Appl. 36, 1981), as `verify_recovery` checks in closed form; within its
    tolerance, that of nearby data, whose density near a pole can differ
    by more than the data does.

    T_n is built once.  Full-rank T_n is cleared by one Cholesky and takes
    the predictor from one LU solve of T_{n-1}, O((nq)^3 / 3).  Singular
    T_n takes the predictor's one SVD of T_{n-1}.  That SVD gives
    rank T_{n-1} and the range the shift reads, and from size 40 on, after
    a second Cholesky, which proves T_n TND, with the q x q Schur
    complement rank T_n (`toeplitz._schur_rank`); one eigvalsh of T_n
    where T_n is smaller or that certificate cannot tell.  The shift's unitary part comes from
    Hermitian eigensolvers (`_unitary_part`): an eigh of
    size r and small stacked eigs, plus O(log m) squarings of the shift and
    an eigh of the unitary part's size when T_n is not rank-frozen; one eig
    of size r only when not certified.  The quotient reads re T_n; its
    certificate one Cholesky of T_{n-1}, unless the entry's cleared it.
    Deflated data adds one T_n build and an eigh of size r, which takes
    T'_{n-1}'s range inside U_r (`_deflated_quotient`); atom-free singular
    data reuses T_n and w; both eig den's companion.
    """
    return _central_measure(seq, psd_tol, rank_rtol, root_tol)[0]


def _central_measure(
    seq: HermSeq, psd_tol: float, rank_rtol: float, root_tol: float
) -> tuple[SpectralMeasure, _Entry]:
    """`central_measure` and its entry pass, whose w the extension continues."""
    _check_root_tol(root_tol)
    q, n = seq.q, len(seq) - 1
    entry = _enter(toeplitz_matrix(seq, n), q, psd_tol, rank_rtol)
    atoms: tuple[Atom, ...] = ()
    whole = False
    if n >= 1 and not entry.full_rank:
        atoms, unitary, route, widest = _shift_atoms(entry, q, root_tol)
        whole = unitary == entry.s_r.size
        if (log := _debug_logger()) is not None:
            rest = spec_norm(seq.coeffs[0] - sum(a.weight for a in atoms))
            log.debug(
                "singular T_%d: rank %d, rank T_%d %d, unitary part of the shift %d, "
                "%s route, widest block %d, ||C'_0|| / ||C_0|| = %.3e",
                n, entry.rank, n - 1, entry.s_r.size, unitary, route, widest,
                rest / entry.c0_norm if entry.c0_norm > 0.0 else 0.0,
            )
    quotient = None if whole else _deflated_quotient(seq, atoms, entry, rank_rtol)
    sm = SpectralMeasure(q, atoms, quotient)
    _require_disk(sm.quotient, DISK_MARGIN)
    return sm, entry


def _deflated_quotient(seq: HermSeq, atoms: tuple[Atom, ...], entry: _Entry, rank_rtol: float):
    """Central quotient of the deflated data C'_j = C_j - sum_v v^{-j} X_v,
    j = 0..n, the moments of the absolutely continuous part once the
    ``atoms`` are taken out; with no atom that is the data's own, from the
    entry's re T_n and predictor.  `_central_measure` certifies its den.

    It reads the Toeplitz matrix of C' itself, and takes the range of
    T'_{n-1} inside the entry's U_r, with no second SVD.  T_{n-1} - T'_{n-1}
    is the atoms' Toeplitz matrix, sum_v e_v e_v* (x) X_v >= 0, and
    T'_{n-1} >= 0, so x* T' x <= x* T x = 0 on ker T_{n-1}: range T'
    lies in range T, spanned by U_r, and T' = U_r H U_r*, H = U_r* T' U_r.
    One eigh H = Q diag(lambda) Q*, O(r^3), gives T' = B diag(lambda) B*
    with B = U_r Q, and the pseudoinverse keeps the lambda above rank_rtol
    times the largest.  In floating point U_r leaves out the directions
    where T_{n-1} is below the cutoff; there x* T' x <= x* T x is at most
    that cutoff, and the off-range block of T' at most its square root
    times ||T'||^(1/2), which the refinement of `toeplitz._refined_solve`
    against T' itself absorbs in the Yule-Walker residual.  Cost O((nq)^2 r)
    besides the eigh and the T'_n build.
    """
    if not atoms:
        return _central_quotient(seq.coeffs[0], entry.t, entry.w, entry.cleared)
    q, n = seq.q, len(seq) - 1
    moments = _atom_coeffs(SpectralMeasure(q, atoms, None), np.arange(n + 1))
    deflated = seq._stack - moments.reshape(-1, q, q)
    td = _re_toeplitz(toeplitz_matrix(HermSeq(deflated), n), q)
    scaled = _unit_scaled(td, q)[0]
    tn, u_r = scaled[:-q, :-q], entry.u_r
    lam, vec = _eig(u_r.conj().T @ tn @ u_r, hermitian=True)
    keep = lam > rank_rtol * lam.max(initial=0.0)
    b = u_r @ vec[:, keep]
    wd = _refined_solve(tn, scaled[q:, :q], b, b, lam[keep]).reshape(n, q, q)
    return _central_quotient(deflated[0], td, wd)


def _check_weight(w: np.ndarray, where: str) -> None:
    """InvalidInputError naming ``where`` unless the atom weight w is
    Hermitian and PSD within DEFAULT_PSD_TOL * ||w||."""
    tol = DEFAULT_PSD_TOL * spec_norm(w)
    if spec_norm(w - w.conj().T) > tol:
        raise InvalidInputError(f"{where}: weight is not Hermitian")
    low = float(np.linalg.eigvalsh(re_mat(w))[0])
    if low < -tol:
        raise InvalidInputError(f"{where}: weight has negative eigenvalue {low:.3e}")


def atomic_measure(atoms, q: int | None = None) -> SpectralMeasure:
    """Purely atomic measure from (point, weight) pairs with Hermitian PSD
    q x q weights; zero density part."""
    cleaned = []
    for k, (point, weight) in enumerate(atoms):
        p, w = _on_circle(point, f"atom {k} location"), as_cmatrix(weight)
        q = w.shape[0] if q is None else q
        if w.shape != (q, q):
            raise DimensionError(f"atom weight has shape {w.shape}, expected ({q}, {q})")
        _check_weight(w, f"atom {k} at {p}")
        cleaned.append(Atom(point=p / abs(p), weight=re_mat(w)))
    if q is None:
        raise InvalidInputError("need q for an empty atom list")
    return SpectralMeasure(q=q, atoms=tuple(cleaned), quotient=None)


def _atom_coeffs(sm: SpectralMeasure, js: np.ndarray) -> np.ndarray:
    """sum_v v^{-j} X_v for each order j in js; shape (J, q^2)."""
    weights = np.array([a.weight for a in sm.atoms], dtype=complex)
    weights = weights.reshape(len(sm.atoms), sm.q**2)
    return (sm.atom_points()[None, :] ** -js[:, None]) @ weights


def _coefficients(sm: SpectralMeasure, js) -> np.ndarray:
    """Fourier coefficients of the orders js; shape (J, q, q).

    The atoms add sum_v v^{-j} X_v.  The density (1/2pi) re Phi, with
    Phi = num den^{-1} analytic on the closed disk, has the orders of the
    Schwarz formula: h_j + h_j* for j = 0, h_j for j > 0 and h_{-j}* for
    j < 0, with h_j = Phi_j / 2 from one Taylor recurrence up to max |j|
    (`taylor_coefficients`), O(max |j| deg den q^3).  Callers certify the
    premise (`_disk_cause`).
    """
    js = np.asarray(js, dtype=int)
    out = np.zeros((js.size, sm.q, sm.q), dtype=complex)
    if sm.quotient is not None:
        top = int(np.max(np.abs(js)))
        h = 0.5 * taylor_coefficients(sm.quotient, top + 1)[np.abs(js)]
        hc = np.conj(np.swapaxes(h, -1, -2))
        side = js[:, None, None]
        out = np.where(side > 0, h, np.where(side < 0, hc, h + hc))
    if sm.atoms:
        out = out + _atom_coeffs(sm, js).reshape(js.size, sm.q, sm.q)
    return out


def fourier_coeff(sm: SpectralMeasure, j: int) -> np.ndarray:
    """j-th Fourier coefficient integral zeta^{-j} d mu(zeta).

    Closed form (`_coefficients`): the density's order from the Taylor
    coefficients of num den^{-1} up to |j|, O(|j| deg den q^3), plus the
    point masses' moments.  ModelError when a zero of det den is not
    certified outside the closed disk (`_disk_cause`).
    """
    _require_disk(sm.quotient, DISK_MARGIN)
    return _coefficients(sm, [int(j)])[0]


def herglotz_transform(sm: SpectralMeasure, z: complex) -> np.ndarray:
    """integral (zeta + z)/(zeta - z) d mu(zeta) for z in the open disk.

    For measures arising from a TND sequence this reproduces the Caratheodory
    function of the sequence.  The density's part is
    Phi(z) - (Phi(0) - Phi(0)*) / 2, num and den at z and 0 in one Horner
    pass; each point mass adds (v + z)/(v - z) X_v.  Nothing is sampled, so
    accuracy holds for every |z| < 1.  ModelError when a zero of det den is
    not certified outside the closed disk (`_disk_cause`).
    """
    zp = _disk_point(z)
    _require_disk(sm.quotient, DISK_MARGIN)
    out = np.zeros((sm.q, sm.q), dtype=complex)
    if sm.quotient is not None:
        phi, phi0 = rational_values(sm.quotient, np.array([zp, 0.0]))
        out = phi - 0.5 * (phi0 - phi0.conj().T)
    for atom in sm.atoms:
        out = out + (atom.point + zp) / (atom.point - zp) * atom.weight
    return out


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of checking a measure against its source coefficients.

    ``relative_error`` is max_error / ||C_0||; for C_0 = 0, where the data
    has no scale, it is max_error itself.  ``density_psd_bound`` >= 0
    certifies the density PSD on the whole circle (`_density_psd_bound`).
    ``cause`` says why a report failed (None when it passed): a zero of
    det den not certified outside the closed disk, or the max error over
    the tolerance.
    """

    max_error: float
    relative_error: float
    tolerance: float
    passed: bool
    errors_by_order: tuple[float, ...]
    atom_mass: np.ndarray
    atom_mass_trace: float
    density_psd_bound: float
    cause: str | None

    def to_dict(self) -> dict:
        return {
            "max_error": self.max_error,
            "relative_error": self.relative_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "errors_by_order": list(self.errors_by_order),
            "atom_mass_trace": self.atom_mass_trace,
            "density_psd_bound": self.density_psd_bound,
            "cause": self.cause,
        }


def _density_psd_bound(cq: CaratheodoryQuotient) -> float:
    """(lambda_min(H_0) - sum_{m != 0} ||H_m||_F) / 2pi, by Weyl's inequality
    a lower bound on the eigenvalues of (1/2pi) H(zeta) on the whole circle.

    There re num den^{-1} = den^{-*} H den^{-1} with H = (den* num +
    num* den) / 2 = sum_m H_m zeta^m, whose M = 2 max(len num, len den) - 1
    orders transforms on M points read exactly.  A central or deflated
    quotient has constant H (Whittle, Biometrika 50, 1963; Delsarte, Genin
    and Kamp, IEEE Trans. CAS 25, 1978), so the bound is lambda_min(H) / 2pi;
    for a hand-built quotient it is conservative.  Cost O(M q^3 + q^2 M log M).
    """
    size = 2 * max(cq.num.coeffs.shape[0], cq.den.coeffs.shape[0]) - 1
    # num and den at zeta_k = e^{2 pi i k / M}, from one transform of the pair
    pair = np.zeros((2, size, cq.num.q, cq.num.q), dtype=complex)
    pair[0, : cq.num.coeffs.shape[0]] = cq.num.coeffs
    pair[1, : cq.den.coeffs.shape[0]] = cq.den.coeffs
    num, den = size * np.fft.ifft(pair, axis=1)
    g = np.conj(np.swapaxes(den, -1, -2)) @ num
    # row m holds H_{-m}: the bound reads every order alike
    h = 0.5 * np.fft.ifft(g + np.conj(np.swapaxes(g, -1, -2)), axis=0)
    # h / 2^e, so no Frobenius norm overflows, and every bit is kept
    h, e = _pow2_scaled(h)
    low = np.linalg.eigvalsh(h[0])[0] - np.sum(np.linalg.norm(h[1:], axis=(1, 2)))
    return float(np.ldexp(low, e) / TWO_PI)


def verify_recovery(
    sm: SpectralMeasure,
    seq: HermSeq,
    tol: float = 1e-8,
) -> RecoveryReport:
    """Recover C_0..C_n from the measure and compare with the sequence.

    A measure without a quotient is purely atomic: every order is a
    closed-form sum over its atoms, and there is no density
    (``density_psd_bound`` 0.0).

    Otherwise the orders are the closed form of `_coefficients`: one Taylor
    recurrence of num den^{-1} up to order n, O(n deg den q^3), plus the
    atoms' moments, with no grid; the quotient is that of the absolutely
    continuous part, with no pole at an atom.  The closed form needs det den
    zero-free on the closed disk, which `_disk_cause` reads off the quotient's
    Stein certificate or zeros.  A zero it does not certify fails the report,
    whose ``cause`` names it; the density then recovers nothing, so the
    errors are those of the atoms alone (the Taylor series of such a
    quotient need not converge on the circle, nor exist when den(0) is
    singular).  ``passed`` reads recovery and that certificate, not the
    density bound.  ``tol`` must be finite and nonnegative.
    """
    if not 0.0 <= tol < np.inf:
        raise InvalidInputError(f"tol {tol} must be finite and nonnegative")
    if seq.q != sm.q:
        raise InvalidInputError(f"block sizes differ: sequence {seq.q}, measure {sm.q}")
    cause = None if sm.quotient is None else _disk_cause(sm.quotient, DISK_MARGIN)
    recovered = sm if cause is None else replace(sm, quotient=None)
    coeffs = _coefficients(recovered, range(len(seq)))
    errs = tuple(_spec_norms(coeffs - seq._stack).tolist())
    if sm.atoms:
        mass = np.sum([a.weight for a in sm.atoms], axis=0)
    else:
        mass = np.zeros((sm.q, sm.q), dtype=complex)
    c0_norm = spec_norm(seq.coeffs[0])
    max_err = max(errs)
    if cause is None and not max_err <= tol:
        cause = f"max error {max_err:.3e} > tolerance {tol:.3e}"
    return RecoveryReport(
        max_error=float(max_err),
        relative_error=float(max_err / c0_norm if c0_norm > 0.0 else max_err),
        tolerance=float(tol),
        passed=cause is None,
        errors_by_order=errs,
        atom_mass=mass,
        atom_mass_trace=float(np.real(np.trace(mass))),
        density_psd_bound=0.0 if sm.quotient is None else _density_psd_bound(sm.quotient),
        cause=cause,
    )


def ar_spectrum(
    seq: HermSeq,
    order: int,
    psd_tol: float = DEFAULT_PSD_TOL,
    rank_rtol: float = DEFAULT_RANK_RTOL,
) -> SpectralMeasure:
    """Autoregressive spectral estimate: the central measure of C_0..C_order.

    The requested order is authoritative.  Stored coefficients beyond it are
    compared against the central extension, continued with the predictor w
    the measure was computed from (w_m = -den_m for full-rank T_order, whose
    quotient is the central one);
    disagreement means the data is not autoregressive of that order and
    raises ArOrderMismatchWarning.  The prefix takes `central_measure`'s
    entry pass; the extension to the stored length L is checked by one
    Cholesky of re T_{L-1}, O((Lq)^3 / 3), with eigvalsh only when that
    fails (`toeplitz._continue`).
    Coefficients count as equal within CENTRAL_TOL * (1 + ||C_0||), the test
    `central_order` makes.
    """
    if not 0 <= order < len(seq):
        raise InvalidInputError(f"order {order} outside stored range 0..{len(seq) - 1}")
    prefix = seq.prefix(order + 1)
    sm, entry = _central_measure(prefix, psd_tol, rank_rtol, DEFAULT_ROOT_TOL)
    if len(seq) > order + 1:
        ext = _continue(prefix, entry.w, len(seq), psd_tol, entry.c0_norm)
        scale = 1.0 + entry.c0_norm
        diff = seq._stack[order + 1 :] - ext._stack[order + 1 :]
        gap = _spec_norms(diff)
        off = (np.nonzero(gap > CENTRAL_TOL * scale)[0] + order + 1).tolist()
        if off:
            warnings.warn(
                f"coefficients {off} differ from the central extension; the "
                f"sequence is not autoregressive of order {order}",
                ArOrderMismatchWarning,
                stacklevel=2,
            )
    return sm
