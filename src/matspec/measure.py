"""Explicit spectral measures: point masses plus absolutely continuous density.

The central continuation of a TND sequence is the Fourier-coefficient
sequence of a unique positive matrix measure on the unit circle.  That
measure decomposes as

    mu = (1/2pi) re Lambda(zeta) dtheta  +  sum_v  X_v delta_v,

where Lambda = num den^{-1} - sum_v (v + z)/(v - z) X_v is the rational
Caratheodory quotient with its poles removed, the v run over the unimodular
zeros of det den, and each point mass X_v is a residue of the quotient there.
Everything here computes that decomposition and checks it by recovering the
Fourier coefficients.

The zeros of det den near the circle are analysed once per quotient
(`CaratheodoryQuotient.near_circle`): clustered, Newton-polished on den and
given their residues from den's kernel vectors.  The atoms and the poles
subtracted below are two selections from that one analysis.

Recovery integrates the density with the trapezoid rule and adds the point
masses exactly.  A zero p of det den just outside the circle makes a density
spike of width about |p| - 1; its pole part R/(z - p) is subtracted from
Lambda and its contribution added in closed form, so the rule sees only a
smooth remainder and needs at most 4096 nodes however narrow the spike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .caratheodory import (
    CLUSTER_RADIUS,
    NEAR_CIRCLE,
    CaratheodoryQuotient,
    _central_quotient,
    _pd_polynomials,
    pd_polynomials,
    rational_values,
)
from .central import CENTRAL_TOL
from .errors import DimensionError, InvalidInputError, ModelError, MultiplicityError
from .linalg import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_RTOL,
    as_cmatrix,
    re_mat,
    spec_norm,
)
from .matpoly import DEFAULT_ROOT_TOL
from .toeplitz import HermSeq, _continue, _require_tnd, toeplitz_matrix

# Distance below which density evaluation switches to arc extrapolation.
EPS_SING = 1e-5
# Eigenvalues of an atom weight in [-ATOM_CLIP*||C_0||, 0) clip to zero.
ATOM_CLIP = 1e-9
# Atoms with ||W|| <= ATOM_DROP*||C_0|| are removable singularities.
ATOM_DROP = 1e-10
# Offset scan grid on which `verify_recovery` counts density PSD violations.
DENSITY_NODES = 360
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

    ``quotient`` is None only for purely atomic measures built directly from
    an atom list, in which case the density is identically zero.
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
    """Density at the unit-circle points zs; shape (N, q, q).

    Points closer than EPS_SING to an atom are filled in by polynomial
    extrapolation along the arc towards the nearest atom, where direct
    evaluation would cancel.
    """
    vals = _density_direct(sm, zs)
    if sm.atoms:
        points = sm.atom_points()
        dist = np.abs(zs[:, None] - points)
        nearest = np.argmin(dist, axis=1)
        for idx in np.nonzero(np.min(dist, axis=1) < EPS_SING)[0]:
            vals[idx] = _density_extrapolated(sm, points[nearest[idx]], zs[idx])
    return vals


def _density_direct(sm: SpectralMeasure, zs: np.ndarray) -> np.ndarray:
    """(1/2pi) re Lambda on given unit-circle points, no singularity handling."""
    if sm.quotient is None:
        phi = np.zeros(zs.shape + (sm.q, sm.q), dtype=complex)
    else:
        phi = rational_values(sm.quotient, zs)
    if sm.atoms:
        points = sm.atom_points()
        kern = (points + zs[..., None]) / (points - zs[..., None])
        weights = np.array([a.weight for a in sm.atoms])
        phi = phi - np.tensordot(kern, weights, axes=(-1, 0))
    herm = 0.5 * (phi + np.conj(np.swapaxes(phi, -1, -2)))
    return herm / TWO_PI


def _density_extrapolated(
    sm: SpectralMeasure, atom_point: complex, zeta: complex
) -> np.ndarray:
    """Density at a point within EPS_SING of an atom, by arc extrapolation.

    Lambda extends smoothly through the atom, so values at arc offsets
    {2,3,4,5}*EPS_SING on the near side extrapolate cleanly.
    """
    tv = float(np.angle(atom_point))
    delta = (float(np.angle(zeta)) - tv + np.pi) % TWO_PI - np.pi
    sgn = 1.0 if delta >= 0.0 else -1.0
    xs = sgn * EPS_SING * np.array([2.0, 3.0, 4.0, 5.0])
    pts = np.exp(1j * (tv + xs))
    vals = _density_direct(sm, pts)
    weights = np.array(
        [
            np.prod([(delta - xs[j]) / (xs[i] - xs[j]) for j in range(4) if j != i])
            for i in range(4)
        ]
    )
    out = np.tensordot(weights, vals, axes=(0, 0))
    return 0.5 * (out + out.conj().T)


def density_at(sm: SpectralMeasure, zeta: complex) -> np.ndarray:
    """Density value at one unit-circle point (Hermitian q x q)."""
    z = complex(zeta)
    if abs(abs(z) - 1.0) > 1e-8:
        raise InvalidInputError(f"|zeta| = {abs(z)} is not on the unit circle")
    return _density_on_circle(sm, np.array([z / abs(z)]))[0]


def compute_atoms(
    cq: CaratheodoryQuotient, root_tol: float = DEFAULT_ROOT_TOL
) -> tuple[Atom, ...]:
    """Point masses of the measure behind a rational Caratheodory quotient.

    The atoms are the clusters of the quotient's ``near_circle`` analysis
    whose polished point lies within root_tol of the circle; root_tol must
    lie in [0, NEAR_CIRCLE), the band that analysis covers.  At such a point v
    with a cluster of m zeros of det den, den(v) must have an m-dimensional
    kernel, else MultiplicityError; with X and Y its right and left kernel
    bases the weight is the residue

        X_v = -1/(2v) * num(v) X (Y* den'(v) X)^{-1} Y*.

    Weights are Hermitian-projected; eigenvalues in [-ATOM_CLIP, 0) times
    ||C_0|| clip to zero, anything lower is a model violation.  Atoms with
    ||X_v|| at most ATOM_DROP times ||C_0|| (removable singularities) are
    dropped.
    """
    if not 0.0 <= root_tol < NEAR_CIRCLE:
        raise InvalidInputError(f"root_tol {root_tol} must lie in [0, {NEAR_CIRCLE})")
    res = cq.near_circle
    rows = np.nonzero(np.abs(np.abs(res.points) - 1.0) <= root_tol)[0]
    if rows.size == 0:
        return ()
    rows = rows[np.argsort(np.angle(res.points[rows]) % TWO_PI)]
    points = res.points[rows] / np.abs(res.points[rows])
    sizes, kernel, residues = res.sizes[rows], res.kernel[rows], res.residues[rows]
    for v, m, k, r in zip(points, sizes, kernel, residues):
        if k != m or not np.all(np.isfinite(r)):
            why = f"a {k}-dimensional kernel" if k != m else "den' singular on its kernel"
            raise MultiplicityError(
                f"den({v}) has {why} at a cluster of {m} zeros",
                root=v,
                multiplicity=int(m),
            )
    val = (-0.5 / points)[:, None, None] * residues
    lam, vec = np.linalg.eigh(0.5 * (val + np.conj(np.swapaxes(val, -1, -2))))
    scale = spec_norm(re_mat(cq.num(0.0 + 0.0j)))
    for v, low in zip(points, lam[:, 0]):
        if low < -ATOM_CLIP * scale:
            raise ModelError(f"atom weight at {v} has negative eigenvalue {low:.3e}")
    lam = np.clip(lam, 0.0, None)
    atoms: list[Atom] = []
    for v, lv, vv in zip(points, lam, vec):
        if lv[-1] <= ATOM_DROP * scale:
            continue
        w = (vv * lv) @ vv.conj().T
        atoms.append(Atom(point=complex(v), weight=0.5 * (w + w.conj().T)))
    return tuple(atoms)


def central_measure(
    seq: HermSeq,
    psd_tol: float = DEFAULT_PSD_TOL,
    rank_rtol: float = DEFAULT_RANK_RTOL,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> SpectralMeasure:
    """Spectral measure of the central continuation of a TND sequence.

    A length-1 sequence yields the constant density C_0/(2pi) with no atoms.
    For well-interior TPD input the positive-definite density
    A(z)^-* A(0) A(z)^-1 / (2pi) is compared with the quotient's at 16
    points, a built-in cross-check.  T_n is built once: its prefixes are
    scanned once, the scan's margin decides whether the cross-check runs,
    the quotient reads re T_n and the cross-check inverts T_n.
    """
    t = toeplitz_matrix(seq, len(seq) - 1)
    margin = _require_tnd(t, seq.q, psd_tol)
    cq = _central_quotient(seq.coeffs[0], re_mat(t), rank_rtol)
    atoms = compute_atoms(cq, root_tol)
    sm = SpectralMeasure(q=seq.q, atoms=atoms, quotient=cq)
    # Cross-check against the positive-definite route when it is numerically
    # trustworthy; the plain inverse loses digits for barely-TPD input.
    if len(seq) >= 2 and margin > 1e-6:
        if sm.atoms:
            raise ModelError("positive-definite input produced point masses")
        pa = _pd_polynomials(t, seq.q)[0]
        angles = TWO_PI * (np.arange(16) + 0.5) / 16
        want = _pd_density_values(pa, np.exp(1j * angles))
        got = sm.density_grid(angles)
        tol = 1e-8 * (1.0 + spec_norm(seq.coeffs[0]))
        err = float(np.max(np.linalg.norm(want - got, 2, axis=(1, 2))))
        if not err <= tol:
            raise ModelError(
                f"central and positive-definite densities disagree ({err:.3e})"
            )
    return sm


def _pd_density_values(pa, zs: np.ndarray) -> np.ndarray:
    """(1/2pi) A(z)^-* A(0) A(z)^-1, Hermitian-projected, at the points zs."""
    ia = np.linalg.inv(pa(zs))
    fa = np.conj(np.swapaxes(ia, -1, -2)) @ pa(0.0 + 0.0j) @ ia
    herm = 0.5 * (fa + np.conj(np.swapaxes(fa, -1, -2)))
    return herm / TWO_PI


def pd_density(seq: HermSeq, zeta: complex) -> np.ndarray:
    """Density of the TPD measure at a unit-circle point, closed form.

    Returns (1/2pi) A(zeta)^-* A(0) A(zeta)^-1 with A the first-column
    polynomial of `pd_polynomials`.  For TPD data the last-row form
    B(zeta)^-1 B(0) B(zeta)^-* is the same density (Delsarte, Genin and
    Kamp, 1978).
    """
    z = complex(zeta)
    if abs(abs(z) - 1.0) > 1e-8:
        raise InvalidInputError(f"|zeta| = {abs(z)} is not on the unit circle")
    return _pd_density_values(pd_polynomials(seq)[0], np.array([z / abs(z)]))[0]


def atomic_measure(atoms, q: int | None = None) -> SpectralMeasure:
    """Purely atomic measure from (point, weight) pairs with q x q weights;
    zero density part."""
    cleaned = []
    for point, weight in atoms:
        p, w = complex(point), as_cmatrix(weight)
        q = w.shape[0] if q is None else q
        if abs(abs(p) - 1.0) > 1e-8:
            raise InvalidInputError(f"atom location |{p}| not on the unit circle")
        if w.shape != (q, q):
            raise DimensionError(f"atom weight has shape {w.shape}, expected ({q}, {q})")
        cleaned.append(Atom(point=p / abs(p), weight=re_mat(w)))
    if q is None:
        raise InvalidInputError("need q for an empty atom list")
    return SpectralMeasure(q=q, atoms=tuple(cleaned), quotient=None)


def _quadrature_angles(nodes: int, atom_points: np.ndarray) -> np.ndarray:
    """Uniform angles, offset so no node comes near an atom location."""
    base = TWO_PI / nodes
    best, best_dist = None, -1.0
    for trial in range(48):
        ang = base * (np.arange(nodes) + 0.5 + 0.013 * trial)
        if atom_points.size == 0:
            return ang
        zs = np.exp(1j * ang)
        dist = float(np.min(np.abs(zs[:, None] - atom_points[None, :])))
        if dist > 2.0 * EPS_SING:
            return ang
        if dist > best_dist:
            best, best_dist = ang, dist
    return best


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
    brute_distance: float  # of the nearest pole the grid must resolve

    def values(self, zs) -> np.ndarray:
        """F at the points zs; shape zs.shape + (q, q)."""
        kern = 1.0 / (np.asarray(zs, dtype=complex)[..., None] - self.poles)
        return np.tensordot(kern, self.residues, axes=(-1, 0))

    def coeff(self, j: int) -> np.ndarray:
        """j-th Fourier coefficient of (1/2pi) re F on the circle.

        -1/2 sum R p^(-j-1) for j >= 1, -1/2 sum (R/p + (R/p)*) for j = 0,
        and the adjoint of coefficient -j for j < 0.
        """
        if j < 0:
            return self.coeff(-j).conj().T
        half = -0.5 * np.tensordot(self.poles ** (-j - 1.0), self.residues, axes=(0, 0))
        return half + half.conj().T if j == 0 else half

    def herglotz(self, z: complex) -> np.ndarray:
        """Herglotz transform of (1/2pi) re F dtheta: F(z) - (F(0) - F(0)*)/2."""
        f0 = self.values(0.0)
        return self.values(z) - 0.5 * (f0 - f0.conj().T)

    def smooth_density(self, sm: SpectralMeasure, ang: np.ndarray) -> np.ndarray:
        """Density minus (1/2pi) re F at unit-circle angles."""
        dens = sm.density_grid(ang)
        if self.poles.size:
            f = self.values(np.exp(1j * ang))
            dens = dens - 0.5 * (f + np.conj(np.swapaxes(f, -1, -2))) / TWO_PI
        return dens


def _singular_part(sm: SpectralMeasure) -> _SingularPart:
    """Reads the quadrature's poles off the quotient's ``near_circle``
    clusters.

    A cluster with a zero within CLUSTER_RADIUS of an atom belongs to that
    point mass.  A cluster is subtracted where all its zeros lie outside the
    circle and its polished point p is a simple pole of num den^{-1} with
    |p| > 1.  The grid must still resolve, by the brute-force sizing rule,
    every zero of the other clusters and of every cluster of more than one
    zero.
    """
    if sm.quotient is None:
        empty = np.empty((0, sm.q, sm.q), dtype=complex)
        return _SingularPart(np.empty(0, dtype=complex), empty, np.inf)
    res = sm.quotient.near_circle
    atoms = sm.atom_points()
    # residues are finite only at simple poles
    finite = np.all(np.isfinite(res.residues), axis=(1, 2))
    subtracted = finite & (np.abs(res.points) > 1.0)
    brute = []
    for i, members in enumerate(res.members):
        if atoms.size and np.min(np.abs(members[:, None] - atoms)) <= CLUSTER_RADIUS:
            subtracted[i] = False
            continue
        subtracted[i] &= bool(np.all(np.abs(members) > 1.0))
        if not subtracted[i] or members.size > 1:
            # roundoff splits a multiple pole, so subtracting it at the
            # cluster mean leaves a dipole the grid must still resolve
            brute.extend(np.abs(np.abs(members) - 1.0))
    poles, residues = res.points[subtracted], res.residues[subtracted]
    return _SingularPart(poles, residues, min(brute, default=np.inf))


def _default_nodes(sm: SpectralMeasure, sing: _SingularPart, j_top: int) -> int:
    cq = sm.quotient
    order, zeros = (0, 0) if cq is None else (cq.order, cq.zeros.size)
    base = max(1024, 16 * order * sm.q, 4 * (zeros + abs(j_top) + 1))
    # trapezoid error decays like exp(-nodes * dist), machine level near
    # nodes * dist = 40; grow the grid for poles it must resolve but keep
    # the cost bounded, verify_recovery reports anything missed.  Subtracted
    # poles leave a smooth remainder; up to 4096 nodes damp what roundoff in
    # their residues leaves of the spike, more would not help.
    if sing.brute_distance < NEAR_CIRCLE:
        # a zero on the circle that no atom claims is at distance 0
        dist = max(sing.brute_distance, 40.0 / NEAR_CIRCLE_NODE_CAP)
        base = max(base, min(NEAR_CIRCLE_NODE_CAP, int(np.ceil(40.0 / dist))))
    if sing.poles.size:
        dist = float(np.min(np.abs(sing.poles))) - 1.0
        base = max(base, min(4096, int(np.ceil(40.0 / dist))))
    return base


def _fourier_many(
    sm: SpectralMeasure, sing: _SingularPart, js, nodes: int
) -> np.ndarray:
    """Coefficients of the orders js: one FFT of the (N, q^2) smooth density
    along the node axis, plus the pole parts and atoms in closed form.

    The grid theta_k = theta_0 + 2 pi k / N is uniform, so the trapezoid sum
    of order j is (2 pi / N) e^{-i j theta_0} FFT(dens)[j mod N] for any
    integer j, negative or >= N.  The FFT overwrites the density array.
    """
    ang = _quadrature_angles(nodes, sm.atom_points())
    dens = sing.smooth_density(sm, ang).reshape(nodes, -1)
    js = np.asarray(js, dtype=int)
    spec = np.fft.fft(dens, axis=0, out=dens)
    coeffs = spec[js % nodes] * ((TWO_PI / nodes) * np.exp(-1j * ang[0] * js))[:, None]
    if sm.atoms:
        weights = np.array([a.weight for a in sm.atoms]).reshape(len(sm.atoms), -1)
        coeffs = coeffs + (sm.atom_points()[None, :] ** -js[:, None]) @ weights
    coeffs = coeffs.reshape(js.size, sm.q, sm.q)
    if sing.poles.size:
        coeffs = coeffs + np.array([sing.coeff(int(j)) for j in js])
    return coeffs


def fourier_coeff(sm: SpectralMeasure, j: int) -> np.ndarray:
    """j-th Fourier coefficient integral zeta^{-j} d mu(zeta).

    Point masses and the near-circle poles of the density (see
    `verify_recovery`) are added in closed form; the smooth rest of the
    density is integrated on a uniform half-step-offset grid (rotated if
    needed to clear the atoms) of `_default_nodes` nodes.
    """
    sing = _singular_part(sm)
    return _fourier_many(sm, sing, [int(j)], _default_nodes(sm, sing, j))[0]


def herglotz_transform(sm: SpectralMeasure, z: complex) -> np.ndarray:
    """integral (zeta + z)/(zeta - z) d mu(zeta) for z in the open disk.

    For measures arising from a TND sequence this reproduces the Caratheodory
    function of the sequence.  Point masses and near-circle poles are
    transformed in closed form, the smooth rest of the density by quadrature.
    """
    zp = complex(z)
    if abs(zp) >= 1.0:
        raise InvalidInputError(f"|z| = {abs(zp)} not inside the open unit disk")
    sing = _singular_part(sm)
    nodes = _default_nodes(sm, sing, 0)
    ang = _quadrature_angles(nodes, sm.atom_points())
    zs = np.exp(1j * ang)
    dens = sing.smooth_density(sm, ang)
    kern = (zs + zp) / (zs - zp)
    out = (TWO_PI / nodes) * np.tensordot(kern, dens, axes=(0, 0))
    out = out + sing.herglotz(zp)
    for atom in sm.atoms:
        out = out + (atom.point + zp) / (atom.point - zp) * atom.weight
    return out


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of checking a measure against its source coefficients."""

    max_error: float
    tolerance: float
    passed: bool
    errors_by_order: tuple[float, ...]
    atom_mass: np.ndarray
    atom_mass_trace: float
    density_psd_violations: int
    density_nodes_checked: int

    def to_dict(self) -> dict:
        return {
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "errors_by_order": list(self.errors_by_order),
            "atom_mass_trace": self.atom_mass_trace,
            "density_psd_violations": self.density_psd_violations,
            "density_nodes_checked": self.density_nodes_checked,
        }


def verify_recovery(
    sm: SpectralMeasure,
    seq: HermSeq,
    tol: float = 1e-8,
) -> RecoveryReport:
    """Recover C_0..C_n from the measure and compare with the sequence.

    Point masses and the pole parts at zeros of det den within 0.04 outside
    the circle enter in closed form; the smooth rest of the density goes
    through the trapezoid rule, every order C_0..C_n from one FFT of the
    density sampled on the grid.  By default the grid has 1024 nodes or more
    for high orders, up to 4096 when poles were subtracted, and up to
    NEAR_CIRCLE_NODE_CAP for near-circle poles the grid must resolve itself
    (those whose residue is not a simple pole's).  The split into pole parts
    and remainder is exact for any pole and residue, so an inaccurate one
    shows as recovery error, never as a false pass.

    Also counts the nodes of an offset scan grid of DENSITY_NODES where the
    density's smallest eigenvalue dips below -DEFAULT_PSD_TOL * (1 + ||C_0||).
    """
    if seq.q != sm.q:
        raise InvalidInputError(f"block sizes differ: sequence {seq.q}, measure {sm.q}")
    js = list(range(len(seq)))
    sing = _singular_part(sm)
    coeffs = _fourier_many(sm, sing, js, _default_nodes(sm, sing, len(seq) - 1))
    errs = tuple(np.linalg.norm(coeffs - np.asarray(seq.coeffs), 2, axis=(1, 2)).tolist())
    if sm.atoms:
        mass = np.sum([a.weight for a in sm.atoms], axis=0)
    else:
        mass = np.zeros((sm.q, sm.q), dtype=complex)
    ang = _quadrature_angles(DENSITY_NODES, sm.atom_points())
    dens = sm.density_grid(ang)
    scale = 1.0 + spec_norm(seq.coeffs[0])
    lows = np.linalg.eigvalsh(dens)[:, 0]
    violations = int(np.count_nonzero(lows < -DEFAULT_PSD_TOL * scale))
    max_err = max(errs)
    return RecoveryReport(
        max_error=float(max_err),
        tolerance=float(tol),
        passed=bool(max_err <= tol),
        errors_by_order=errs,
        atom_mass=mass,
        atom_mass_trace=float(np.real(np.trace(mass))),
        density_psd_violations=violations,
        density_nodes_checked=DENSITY_NODES,
    )


def ar_spectrum(
    seq: HermSeq,
    order: int,
    psd_tol: float = DEFAULT_PSD_TOL,
    rank_rtol: float = DEFAULT_RANK_RTOL,
) -> SpectralMeasure:
    """Autoregressive spectral estimate: the central measure of C_0..C_order.

    The requested order is authoritative.  Stored coefficients beyond it are
    compared against the central extension, continued with the predictor
    w_m = -den_m the measure's quotient already holds; disagreement means the
    data is not autoregressive of that order and raises ArOrderMismatchWarning.
    Coefficients count as equal within CENTRAL_TOL * (1 + ||C_0||), the test
    `central_order` makes.
    """
    if not 0 <= order < len(seq):
        raise InvalidInputError(f"order {order} outside stored range 0..{len(seq) - 1}")
    prefix = seq.prefix(order + 1)
    sm = central_measure(prefix, psd_tol=psd_tol, rank_rtol=rank_rtol)
    if len(seq) > order + 1:
        ext = _continue(prefix, -sm.quotient.den.coeffs[1:], len(seq), psd_tol)
        scale = 1.0 + spec_norm(seq.coeffs[0])
        diff = np.subtract(seq.coeffs, ext.coeffs)[order + 1 :]
        gap = np.linalg.norm(diff, 2, axis=(1, 2))
        off = (np.nonzero(gap > CENTRAL_TOL * scale)[0] + order + 1).tolist()
        if off:
            warnings.warn(
                f"coefficients {off} differ from the central extension; the "
                f"sequence is not autoregressive of order {order}",
                ArOrderMismatchWarning,
                stacklevel=2,
            )
    return sm
