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

Recovery integrates the density with the trapezoid rule and adds the point
masses exactly.  A zero p of det den just outside the circle makes a density
spike of width about |p| - 1; its pole part R/(z - p) is subtracted from
Phi and its contribution added in closed form, so the rule sees only a
smooth remainder, on a grid that puts p halfway between two nodes so that
the roundoff left in R is not amplified however narrow the spike.  A
measure without a quotient has no density: every coefficient and Herglotz
value is a closed-form sum over its atoms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .caratheodory import (
    CLUSTER_RADIUS,
    NEAR_CIRCLE,
    CaratheodoryQuotient,
    _central_quotient,
    _clusters,
    _disk_point,
    _pd_first_column,
    _quotient_values,
    rational_values,
)
from .central import CENTRAL_TOL
from .errors import DimensionError, InvalidInputError, ModelError
from .linalg import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_RTOL,
    _eig,
    _spec_norms,
    as_cmatrix,
    re_mat,
    spec_norm,
)
from .matpoly import MatPolyStack
from .toeplitz import (
    HermSeq,
    _continue,
    _debug_logger,
    _enter,
    _Entry,
    _predictor_range,
    toeplitz_matrix,
)

# Eigenvalues lambda of the compressed shift with ||lambda| - 1| <= root_tol
# count as unimodular.
DEFAULT_ROOT_TOL = 1e-7
# Eigenvalues of an atom weight in [-ATOM_CLIP*||C_0||, 0) clip to zero.
ATOM_CLIP = 1e-9
# Atoms with ||X_v|| <= ATOM_DROP*||C_0|| are dropped.
ATOM_DROP = 1e-10
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
        """Density values at unit-circle angles; shape (N, q, q)."""
        ang = np.atleast_1d(np.asarray(angles, dtype=float))
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


def _circle_point(zeta) -> np.ndarray:
    """zeta, within 1e-8 of the unit circle, projected onto it as a
    1-element array, else InvalidInputError."""
    z = complex(zeta)
    if not np.isfinite(z):
        raise InvalidInputError(f"zeta = {z} is not finite")
    if abs(abs(z) - 1.0) > 1e-8:
        raise InvalidInputError(f"|zeta| = {abs(z)} is not on the unit circle")
    return np.array([z / abs(z)])


def density_at(sm: SpectralMeasure, zeta: complex) -> np.ndarray:
    """Density value at one unit-circle point (Hermitian q x q)."""
    return _density_on_circle(sm, _circle_point(zeta))[0]


def _check_root_tol(root_tol: float) -> None:
    if not 0.0 <= root_tol < NEAR_CIRCLE:
        raise InvalidInputError(f"root_tol {root_tol} must lie in [0, {NEAR_CIRCLE})")


def _atoms_from_weights(
    points: np.ndarray, weights: np.ndarray, scale: float
) -> tuple[Atom, ...]:
    """Atoms at the unimodular ``points``, in their order, from the weights
    (k, q, q); ``scale`` is ||C_0||.

    Weights are Hermitian-projected; eigenvalues in [-ATOM_CLIP, 0) times
    ||C_0|| clip to zero, anything lower is a ModelError.  Atoms with
    ||X_v|| at most ATOM_DROP times ||C_0|| (removable singularities) are
    dropped.
    """
    lam, vec = np.linalg.eigh(re_mat(weights))
    for v, low in zip(points, lam[:, 0]):
        if low < -ATOM_CLIP * scale:
            raise ModelError(f"atom weight at {v} has negative eigenvalue {low:.3e}")
    lam = np.clip(lam, 0.0, None)
    atoms: list[Atom] = []
    for v, lv, vv in zip(points, lam, vec):
        if lv[-1] <= ATOM_DROP * scale:
            continue
        w = (vv * lv) @ vv.conj().T
        atoms.append(Atom(point=complex(v), weight=re_mat(w)))
    return tuple(atoms)


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
    eigenvalues above 1/2, and K* W K takes the frozen route.  m is first the
    power of two >= r, then 2^floor(log2(ln 2 / (2 root_tol))), at which an
    eigenvalue of modulus 1 - root_tol maps to 1/2, so that the split
    classifies eigenvalues as the modulus test does.  A result stands when K
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


def _by_angle(points: np.ndarray) -> np.ndarray:
    """Indices that sort points by angle in [0, 2pi), a point within
    CLUSTER_RADIUS below 2pi counting as just below 0: an atom at 1 comes
    first whatever the sign of its angle's roundoff."""
    angle = np.angle(points) % TWO_PI
    return np.argsort(np.where(angle > TWO_PI - CLUSTER_RADIUS, angle - TWO_PI, angle))


def _shift_atoms(entry: _Entry, q: int, root_tol: float) -> tuple[tuple[Atom, ...], int, str, int]:
    """Atoms of singular data from the compressed shift W, the dimension of
    W's unitary part, and the route and widest eig of `_unitary_part`.

    ``entry`` holds re T_n, ||C_0||, rank T_n and the predictor's SVD
    T_{n-1} = U_r diag(s_r) U_r*; rank T_n = rank T_{n-1} = r says T_n is
    rank-frozen, and then W is unitary.  With
    B = U_r s_r^{-1/2}, W = B* T_n[q:, :-q] B; its eigenvalues within
    root_tol of the circle span the unitary part (`_unitary_part`), and
    conjugated they are the atoms, clustered as the zeros of det den are.
    The weight of a cluster is G P G*, G = (U_r s_r^{1/2})[:q] and P the
    orthogonal projector onto the cluster's eigenvectors, from one stacked
    QR per cluster size.  Cost O(n q r^2) plus `_unitary_part`'s.
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
    order = _by_angle(means)
    points = means[order] / np.abs(means[order])
    atoms = _atoms_from_weights(points, weights[order], entry.c0_norm)
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
    C'_j = C_j - sum_v v^{-j} X_v.
    For well-interior TPD input the positive-definite density
    A(z)^-* A(0) A(z)^-1 / (2pi) is compared with the quotient's at 16
    points, a built-in cross-check.  T_n is built once: its prefixes are
    scanned once by one eigvalsh, which also gives rank T_n, and the scan's
    margin decides whether the cross-check runs.  Full-rank T_n takes the
    predictor from one LU solve of T_{n-1}, O((nq)^3 / 3), and the
    cross-check's A, the first block column of T_n^{-1}, from one LU solve
    against q columns of the identity, O((nq)^3 / 3 + (nq)^2 q).  Singular
    T_n takes the predictor's one SVD, which gives rank T_{n-1} and the
    range the shift reads, and finds the shift's unitary part with
    Hermitian eigensolvers (`_unitary_part`): an eigh of size r and small
    stacked eigs, plus O(log m) squarings of the shift and an eigh of the
    unitary part's size when T_n is not rank-frozen; one eig of size r
    only when their result is not certified.  The quotient reads re T_n.
    Deflated data adds one Toeplitz build and one SVD of T'_{n-1}.
    """
    return _central_measure(seq, psd_tol, rank_rtol, root_tol)[0]


def _central_measure(
    seq: HermSeq, psd_tol: float, rank_rtol: float, root_tol: float
) -> tuple[SpectralMeasure, _Entry]:
    """`central_measure` and its entry pass, whose w the extension continues."""
    _check_root_tol(root_tol)
    q, n = seq.q, len(seq) - 1
    entry = _enter(toeplitz_matrix(seq, n), q, psd_tol, rank_rtol)
    if n >= 1 and not entry.full_rank:
        atoms, unitary, route, widest = _shift_atoms(entry, q, root_tol)
        sm = SpectralMeasure(q=q, atoms=atoms, quotient=None)
        log = _debug_logger()
        if log is not None:
            rest = spec_norm(seq.coeffs[0] - sum(a.weight for a in atoms))
            log.debug(
                "singular T_%d: rank %d, rank T_%d %d, unitary part of the shift %d, "
                "%s route, widest block %d, ||C'_0|| / ||C_0|| = %.3e",
                n, entry.rank, n - 1, entry.s_r.size, unitary, route, widest,
                rest / entry.c0_norm if entry.c0_norm > 0.0 else 0.0,
            )
        if unitary < entry.s_r.size:
            cq = _deflated_quotient(seq, sm, rank_rtol)
            sm = SpectralMeasure(q=q, atoms=atoms, quotient=cq)
        return sm, entry
    cq = _central_quotient(seq.coeffs[0], entry.t, entry.w)
    sm = SpectralMeasure(q=q, atoms=(), quotient=cq)
    # Cross-check against the positive-definite route when it is numerically
    # trustworthy; A, read off T_n^{-1}, loses digits for barely-TPD input.
    if n >= 1 and entry.margin > 1e-6:
        pa = _pd_first_column(entry.t, q)
        zs = np.exp(1j * (TWO_PI * (np.arange(16) + 0.5) / 16))
        # A, num and den at the 16 points in one Horner pass
        av, nv, dv = MatPolyStack(pa, sm.quotient.num, sm.quotient.den)(zs)
        want = _pd_density_values(av, pa.coeffs[0])
        got = _re_density(_quotient_values(nv, dv))
        tol = 1e-8 * (1.0 + entry.c0_norm)
        err = float(np.max(_spec_norms(want - got)))
        if not err <= tol:
            raise ModelError(
                f"central and positive-definite densities disagree ({err:.3e})"
            )
    return sm, entry


def _deflated_quotient(seq: HermSeq, sm: SpectralMeasure, rank_rtol: float):
    """Central quotient of the deflated data C'_j = C_j - sum_v v^{-j} X_v,
    j = 0..n, the moments of the absolutely continuous part once the atoms
    of ``sm`` are taken out.  It reads the Toeplitz matrix and predictor of
    C' itself; the disk check guards its den (ModelError naming the
    deflated data)."""
    q, n = seq.q, len(seq) - 1
    deflated = np.subtract(seq.coeffs, _atom_coeffs(sm, np.arange(n + 1)).reshape(-1, q, q))
    td = re_mat(toeplitz_matrix(HermSeq(deflated), n))
    wd = _predictor_range(td, q, rank_rtol)[0]
    try:
        return _central_quotient(deflated[0], td, wd)
    except ModelError as exc:
        raise ModelError(f"deflated data: {exc}") from exc


def _pd_density_values(av: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """(1/2pi) A(z)^-* A(0) A(z)^-1, Hermitian-projected, from the values
    ``av`` of A at the points z and A(0) = ``a0``, its constant
    coefficient."""
    ia = np.linalg.inv(av)
    return _re_density(np.conj(np.swapaxes(ia, -1, -2)) @ a0 @ ia)


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
        p, w = complex(point), as_cmatrix(weight)
        q = w.shape[0] if q is None else q
        if abs(abs(p) - 1.0) > 1e-8:
            raise InvalidInputError(f"atom location |{p}| not on the unit circle")
        if w.shape != (q, q):
            raise DimensionError(f"atom weight has shape {w.shape}, expected ({q}, {q})")
        _check_weight(w, f"atom {k} at {p}")
        cleaned.append(Atom(point=p / abs(p), weight=re_mat(w)))
    if q is None:
        raise InvalidInputError("need q for an empty atom list")
    return SpectralMeasure(q=q, atoms=tuple(cleaned), quotient=None)


def _quadrature_angles(nodes: int, poles=()) -> np.ndarray:
    """Uniform angles theta_0 + 2 pi k / N that keep every subtracted pole's
    argument as far from a node as the poles allow.

    What roundoff leaves of a subtracted pole part, delta / (z - p), aliases
    into order j as delta p^(-j-1) w / (1 - w), w = |p|^(-N)
    e^(iN(theta_0 - arg p)): about delta / (N (|p| - 1)) when a node lies on
    the pole's ray, at most delta / 2 for every N and |p| when arg p lies
    halfway between two nodes (Trefethen and Weideman, SIAM Rev. 56, 2014).
    theta_0 maximises min_i |sin(N (arg p_i - theta_0) / 2)|: in units of
    the step it is the midpoint of the widest gap between the poles'
    arguments modulo one step.  One pole lands halfway between two nodes,
    and k poles at least 1 / (2k) of a step from a node.  Without poles the
    offset is half a step.
    """
    offset = 0.5
    if len(poles):
        # the poles' arguments in units of the step, modulo one step
        frac = np.sort((np.angle(poles) * (nodes / TWO_PI)) % 1.0)
        gaps = np.diff(frac, append=frac[0] + 1.0)
        widest = np.argmax(gaps)
        offset = (frac[widest] + 0.5 * gaps[widest]) % 1.0
    return (TWO_PI / nodes) * (np.arange(nodes) + offset)


# The grid counts each zero at least 40 / NEAR_CIRCLE_NODE_CAP from the circle.
NEAR_CIRCLE_NODE_CAP = 65536


class _SingularPart(NamedTuple):
    """Near-circle poles of num den^{-1}, taken out of the quadrature.

    F(z) = sum_i R_i / (z - p_i) runs over zeros p_i of det den just outside
    the circle, R_i the residue of num den^{-1} at p_i.  F is holomorphic on
    the closed disk, so the Fourier coefficients and the Herglotz transform
    of (1/2pi) re F are exact, while re(Lambda - F) stays smooth near every
    p_i.  The split is an identity for any p_i and R_i: an inaccurate
    residue only leaves a spike the quadrature misses, and the recovery
    check reports it.
    """

    poles: np.ndarray  # (k,), each |p| > 1
    residues: np.ndarray  # (k, q, q)
    resolved: np.ndarray  # zeros of det den the grid resolves itself

    def values(self, zs) -> np.ndarray:
        """F at the points zs; shape zs.shape + (q, q)."""
        kern = 1.0 / (np.asarray(zs, dtype=complex)[..., None] - self.poles)
        return np.tensordot(kern, self.residues, axes=(-1, 0))

    def coeffs(self, js: np.ndarray) -> np.ndarray:
        """Fourier coefficients of (1/2pi) re F at the orders js; shape
        (J, q, q).

        With h_j = -1/2 sum R p^(-j-1), order j is h_j for j > 0, h_0 + h_0*
        for j = 0 and h_{-j}* for j < 0.
        """
        h = -0.5 * np.tensordot(self.poles ** (-np.abs(js)[:, None] - 1.0), self.residues, 1)
        hc = np.conj(np.swapaxes(h, -1, -2))
        side = js[:, None, None]
        return np.where(side > 0, h, np.where(side < 0, hc, h + hc))

    def herglotz(self, z: complex) -> np.ndarray:
        """Herglotz transform of (1/2pi) re F dtheta: F(z) - (F(0) - F(0)*)/2."""
        f0 = self.values(0.0)
        return self.values(z) - 0.5 * (f0 - f0.conj().T)

    def smooth_density(self, sm: SpectralMeasure, ang: np.ndarray) -> np.ndarray:
        """Density minus (1/2pi) re F at unit-circle angles."""
        dens = sm.density_grid(ang)
        if self.poles.size:
            f = self.values(np.exp(1j * ang))
            dens = dens - re_mat(f) / TWO_PI
        return dens


def _singular_part(sm: SpectralMeasure) -> _SingularPart:
    """Reads the quadrature's poles off the quotient's ``near_circle``
    clusters.

    A cluster is subtracted where all its zeros lie outside the circle and
    its polished point p is a simple pole of num den^{-1} with |p| > 1: den(p)
    has a kernel of the cluster's size, so a cluster of m zeros is one pole
    with a rank-m residue.  Roundoff splits such a pole, and subtracting it
    at the cluster mean leaves a dipole c / (z - p)^2 with |c| tiny, whose
    alias on N nodes is at most N |c| / 4.  The grid resolves the zeros of
    the other clusters and those outside the NEAR_CIRCLE band.
    """
    zs, res = sm.quotient.zeros, sm.quotient.near_circle
    resolved = [zs[np.abs(np.abs(zs) - 1.0) >= NEAR_CIRCLE]]
    # residues are finite only at simple poles
    finite = np.all(np.isfinite(res.residues), axis=(1, 2))
    subtracted = finite & (np.abs(res.points) > 1.0)
    for i, members in enumerate(res.members):
        subtracted[i] &= bool(np.all(np.abs(members) > 1.0))
        if not subtracted[i]:
            resolved.append(members)
    return _SingularPart(res.points[subtracted], res.residues[subtracted], np.concatenate(resolved))


def _default_nodes(sm: SpectralMeasure, sing: _SingularPart, j_top: int) -> int:
    """Trapezoid nodes N for the Fourier orders |j| <= |j_top| of the density
    left once ``sing`` is subtracted.

    The rule reads order j with the alias of order j - N, whose size falls
    like e^{-(N - |j|) d} when the density is analytic in the annulus
    |log|z|| < d (Trefethen and Weideman, SIAM Rev. 56, 2014), so
    N = max(64, |j_top| + max(ceil(40 / d), p + 1)).  d is the smallest
    |log|z|| over ``sing.resolved``, the zeros of det den outside the
    NEAR_CIRCLE band and those inside it that are not subtracted, each at
    least 40 / NEAR_CIRCLE_NODE_CAP.  A polynomial part of num den^{-1}, of
    degree at most p = deg num + (q - 1) deg den - deg det den (degrees of
    the trimmed polynomials), aliases exactly unless N - |j_top| exceeds p.
    The atoms are added in closed form and take no nodes, and so do the
    subtracted poles: `_quadrature_angles` keeps them off the nodes, where
    the alias of their roundoff stays bounded for any N.
    """
    cq = sm.quotient
    with np.errstate(divide="ignore"):
        dist = np.abs(np.log(np.abs(sing.resolved)))
    poly = cq.num.trim().degree + (sm.q - 1) * cq.den.trim().degree - cq.zeros.size
    floor = 40.0 / NEAR_CIRCLE_NODE_CAP
    decay = int(np.ceil(40.0 / max(np.min(dist), floor))) if dist.size else 0
    return max(64, abs(j_top) + max(decay, poly + 1))


def _atom_coeffs(sm: SpectralMeasure, js: np.ndarray) -> np.ndarray:
    """sum_v v^{-j} X_v for each order j in js; shape (J, q^2)."""
    weights = np.array([a.weight for a in sm.atoms], dtype=complex)
    weights = weights.reshape(len(sm.atoms), sm.q**2)
    return (sm.atom_points()[None, :] ** -js[:, None]) @ weights


def _coefficients(sm: SpectralMeasure, js) -> np.ndarray:
    """Fourier coefficients of the orders js; shape (J, q, q).

    Without a quotient the measure is atomic and every order is a
    closed-form sum over the atoms, with no grid.  Otherwise
    `_fourier_many` takes the smooth part on `_default_nodes` nodes, and the
    atoms and subtracted poles are added in closed form.
    """
    js = np.asarray(js, dtype=int)
    if sm.quotient is None:
        return _atom_coeffs(sm, js).reshape(js.size, sm.q, sm.q)
    sing = _singular_part(sm)
    coeffs = _fourier_many(sm, sing, js, _default_nodes(sm, sing, int(np.max(np.abs(js)))))
    if sm.atoms:
        coeffs = coeffs + _atom_coeffs(sm, js)
    coeffs = coeffs.reshape(js.size, sm.q, sm.q)
    if sing.poles.size:
        coeffs = coeffs + sing.coeffs(js)
    return coeffs


def _fourier_many(sm: SpectralMeasure, sing: _SingularPart, js, nodes: int) -> np.ndarray:
    """Coefficients of the smooth density (density less the subtracted pole
    parts) at the orders js, from one FFT of its (N, q^2) samples along the
    node axis; shape (J, q^2).

    The grid theta_k = theta_0 + 2 pi k / N is uniform, so the trapezoid sum
    of order j is (2 pi / N) e^{-i j theta_0} FFT(dens)[j mod N] for any
    integer j, negative or >= N.  The FFT overwrites the density array.
    """
    ang = _quadrature_angles(nodes, sing.poles)
    dens = sing.smooth_density(sm, ang).reshape(nodes, -1)
    js = np.asarray(js, dtype=int)
    spec = np.fft.fft(dens, axis=0, out=dens)
    return spec[js % nodes] * ((TWO_PI / nodes) * np.exp(-1j * ang[0] * js))[:, None]


def fourier_coeff(sm: SpectralMeasure, j: int) -> np.ndarray:
    """j-th Fourier coefficient integral zeta^{-j} d mu(zeta).

    Point masses and the near-circle poles of the density (see
    `verify_recovery`) are added in closed form; the smooth rest of the
    density is integrated on a uniform grid of `_default_nodes` nodes:
    max(64, |j| + ceil(40 / d)), d the distance in |log|z|| of the nearest
    zero of det den the grid must resolve, so the alias of order j falls
    like e^{-40} however large |j| is.  Its offset keeps the subtracted
    poles off the nodes (`_quadrature_angles`).  A measure without a
    quotient needs no grid.
    """
    return _coefficients(sm, [int(j)])[0]


def herglotz_transform(sm: SpectralMeasure, z: complex) -> np.ndarray:
    """integral (zeta + z)/(zeta - z) d mu(zeta) for z in the open disk.

    For measures arising from a TND sequence this reproduces the Caratheodory
    function of the sequence.  Point masses and near-circle poles are
    transformed in closed form; the smooth rest of the density, whose order
    j falls like e^{-j d} (d as in `_default_nodes`), is c_0 + 2 sum c_j z^j
    over j <= J = `_default_nodes`(0) >= 40 / d, orders from one FFT.  No
    kernel is resolved, so accuracy holds for every |z| < 1.
    """
    zp = _disk_point(z)
    out = np.zeros((sm.q, sm.q), dtype=complex)
    if sm.quotient is not None:
        sing = _singular_part(sm)
        top = _default_nodes(sm, sing, 0)
        coeffs = _fourier_many(sm, sing, np.arange(top + 1), _default_nodes(sm, sing, top))
        # z^j by running products: np.power rounds j arg z, ~j eps per power
        powers = np.cumprod(np.full(top, zp))
        out = (coeffs[0] + 2.0 * (powers @ coeffs[1:])).reshape(sm.q, sm.q)
        out = out + sing.herglotz(zp)
    for atom in sm.atoms:
        out = out + (atom.point + zp) / (atom.point - zp) * atom.weight
    return out


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of checking a measure against its source coefficients.

    ``relative_error`` is max_error / ||C_0||; for C_0 = 0, where the data
    has no scale, it is max_error itself.  ``density_psd_bound`` >= 0
    certifies the density PSD on the whole circle (`_density_psd_bound`).
    """

    max_error: float
    relative_error: float
    tolerance: float
    passed: bool
    errors_by_order: tuple[float, ...]
    atom_mass: np.ndarray
    atom_mass_trace: float
    density_psd_bound: float

    def to_dict(self) -> dict:
        return {
            "max_error": self.max_error,
            "relative_error": self.relative_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "errors_by_order": list(self.errors_by_order),
            "atom_mass_trace": self.atom_mass_trace,
            "density_psd_bound": self.density_psd_bound,
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
    # num and den at zeta_k = e^{2 pi i k / M}
    num = size * np.fft.ifft(cq.num.coeffs, size, axis=0)
    den = size * np.fft.ifft(cq.den.coeffs, size, axis=0)
    g = np.conj(np.swapaxes(den, -1, -2)) @ num
    # row m holds H_{-m}: the bound reads every order alike
    h = 0.5 * np.fft.ifft(g + np.conj(np.swapaxes(g, -1, -2)), axis=0)
    low = np.linalg.eigvalsh(h[0])[0] - np.sum(np.linalg.norm(h[1:], axis=(1, 2)))
    return float(low / TWO_PI)


def verify_recovery(
    sm: SpectralMeasure,
    seq: HermSeq,
    tol: float = 1e-8,
) -> RecoveryReport:
    """Recover C_0..C_n from the measure and compare with the sequence.

    A measure without a quotient is purely atomic: every order is a
    closed-form sum over its atoms, with no grid, and no density
    (``density_psd_bound`` 0.0).

    Otherwise point masses and the pole parts at zeros of det den within
    0.04 outside the circle enter in closed form; the smooth rest of the
    density goes through the trapezoid rule, every order C_0..C_n from one
    FFT of the density sampled on the grid (`_default_nodes`).  The grid
    has max(64, n + ceil(40 / d)) nodes, d the smallest |log|z|| over the
    zeros z of det den the grid resolves itself, so the alias of order n
    falls like e^{-40}, with or without atoms: the quotient is that of the
    absolutely continuous part, with no pole at an atom.  Those zeros are
    the ones outside that band and the near-circle ones that are not
    subtracted (a cluster whose residue is not a simple pole's), each
    counted at least 40 / NEAR_CIRCLE_NODE_CAP from the circle.
    Subtracted poles add no nodes: the grid's offset keeps them off the
    nodes (`_quadrature_angles`).  The split into pole parts and remainder
    is exact for any pole and residue, so an inaccurate one shows as
    recovery error, never as a false pass.  ``passed`` reads recovery alone.
    """
    if seq.q != sm.q:
        raise InvalidInputError(f"block sizes differ: sequence {seq.q}, measure {sm.q}")
    coeffs = _coefficients(sm, range(len(seq)))
    errs = tuple(_spec_norms(coeffs - np.asarray(seq.coeffs)).tolist())
    if sm.atoms:
        mass = np.sum([a.weight for a in sm.atoms], axis=0)
    else:
        mass = np.zeros((sm.q, sm.q), dtype=complex)
    c0_norm = spec_norm(seq.coeffs[0])
    max_err = max(errs)
    return RecoveryReport(
        max_error=float(max_err),
        relative_error=float(max_err / c0_norm if c0_norm > 0.0 else max_err),
        tolerance=float(tol),
        passed=bool(max_err <= tol),
        errors_by_order=errs,
        atom_mass=mass,
        atom_mass_trace=float(np.real(np.trace(mass))),
        density_psd_bound=0.0 if sm.quotient is None else _density_psd_bound(sm.quotient),
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
    raises ArOrderMismatchWarning.  The prefix takes `central_measure`'s one
    eigvalsh; the extension to the stored length L is checked by one
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
        diff = np.subtract(seq.coeffs, ext.coeffs)[order + 1 :]
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
