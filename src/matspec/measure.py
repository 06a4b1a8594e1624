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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .caratheodory import (
    CaratheodoryQuotient,
    _central_quotient,
    _pd_polynomials,
    pd_polynomials,
    rational_values,
)
from .central import gamma_from_covariance
from .errors import InvalidInputError, ModelError
from .linalg import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_RTOL,
    re_mat,
    spec_norm,
)
from .matpoly import (
    DEFAULT_CLUSTER_RADIUS,
    DEFAULT_DERIV_TOL,
    DEFAULT_ROOT_TOL,
    adjugate_poly,
    det_poly,
    matpoly_mul,
    unimodular_roots,
    _limit_known_multiplicity,
)
from .toeplitz import HermSeq, Classification, _continue, _require_tnd, classify

# Distance below which density evaluation switches to arc extrapolation.
EPS_SING = 1e-5
# Eigenvalues of an atom weight in [-ATOM_CLIP*||C_0||, 0) clip to zero.
DEFAULT_ATOM_CLIP = 1e-9
# Atoms with ||W|| <= ATOM_DROP*||C_0|| are removable singularities.
DEFAULT_ATOM_DROP = 1e-10
TWO_PI = 2.0 * np.pi


class ArOrderMismatchWarning(UserWarning):
    """Stored coefficients disagree with the central extension of the prefix."""


class Provenance(Enum):
    CENTRAL = "central"
    PD_PATH = "pd-path"
    ATOMS_ONLY = "atoms-only"


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
    provenance: Provenance

    def atom_points(self) -> np.ndarray:
        return np.array([a.point for a in self.atoms], dtype=complex)

    def density_grid(self, angles) -> np.ndarray:
        """Density values at unit-circle angles; shape (N, q, q).

        Nodes closer than EPS_SING to an atom are filled in by polynomial
        extrapolation along the arc, where direct evaluation would cancel.
        """
        ang = np.atleast_1d(np.asarray(angles, dtype=float))
        zs = np.exp(1j * ang)
        vals = _density_direct(self, zs)
        for atom in self.atoms:
            for idx in np.nonzero(np.abs(zs - atom.point) < EPS_SING)[0]:
                vals[idx] = _density_extrapolated(self, atom.point, zs[idx])
        return vals


def _density_direct(sm: SpectralMeasure, zs: np.ndarray) -> np.ndarray:
    """(1/2pi) re Lambda on given unit-circle points, no singularity handling."""
    if sm.quotient is None:
        phi = np.zeros(zs.shape + (sm.q, sm.q), dtype=complex)
    else:
        phi = rational_values(sm.quotient, zs)
    for atom in sm.atoms:
        kern = (atom.point + zs) / (atom.point - zs)
        phi = phi - kern[..., None, None] * atom.weight
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
    z = z / abs(z)
    for atom in sm.atoms:
        if abs(z - atom.point) < EPS_SING:
            return _density_extrapolated(sm, atom.point, z)
    return _density_direct(sm, np.array([z]))[0]


def compute_atoms(
    cq: CaratheodoryQuotient,
    root_tol: float = DEFAULT_ROOT_TOL,
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
    deriv_tol: float = DEFAULT_DERIV_TOL,
    atom_clip: float = DEFAULT_ATOM_CLIP,
    atom_drop: float = DEFAULT_ATOM_DROP,
) -> tuple[Atom, ...]:
    """Point masses of the measure behind a rational Caratheodory quotient.

    At each unimodular zero v (multiplicity m) of det den, the weight is the
    residue-type value

        X_v = -m / (2 v (det den)^(m)(v)) * (num adj(den))^(m-1)(v).

    Weights are Hermitian-projected; eigenvalues in [-clip, 0) clip to zero,
    anything below -clip is a model violation.  Atoms with negligible weight
    (removable singularities) are dropped.
    """
    den = cq.den.trim()
    db = det_poly(den)
    roots = unimodular_roots(db, root_tol, cluster_radius, deriv_tol)
    if not roots:
        return ()
    prod = matpoly_mul(cq.num, adjugate_poly(den))
    scale = spec_norm(re_mat(cq.num(0.0 + 0.0j)))
    atoms: list[Atom] = []
    for v, m in roots:
        val = (-1.0 / (2.0 * v)) * _limit_known_multiplicity(prod, db, v, m, 1)
        w = 0.5 * (val + val.conj().T)
        lam, vec = np.linalg.eigh(w)
        if lam[0] < -atom_clip * scale:
            raise ModelError(
                f"atom weight at {v} has negative eigenvalue {lam[0]:.3e}"
            )
        lam = np.clip(lam, 0.0, None)
        w = (vec * lam) @ vec.conj().T
        w = 0.5 * (w + w.conj().T)
        if spec_norm(w) <= atom_drop * scale:
            continue
        atoms.append(Atom(point=v, weight=w))
    if len(atoms) > cq.order * cq.num.q:
        raise ModelError(
            f"{len(atoms)} atoms exceed the order bound {cq.order * cq.num.q}"
        )
    return tuple(atoms)


def central_measure(
    seq: HermSeq,
    psd_tol: float = DEFAULT_PSD_TOL,
    rank_rtol: float = DEFAULT_RANK_RTOL,
    root_tol: float = DEFAULT_ROOT_TOL,
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
    deriv_tol: float = DEFAULT_DERIV_TOL,
) -> SpectralMeasure:
    """Spectral measure of the central continuation of a TND sequence.

    A length-1 sequence yields the constant density C_0/(2pi) with no atoms.
    For well-interior TPD input the positive-definite route is computed as a
    built-in cross-check of the density.  The prefixes are scanned once; the
    scan's margin decides whether the cross-check runs.
    """
    margin = _require_tnd(seq, psd_tol)
    cq = _central_quotient(gamma_from_covariance(seq), len(seq) - 1, rank_rtol)
    atoms = compute_atoms(cq, root_tol, cluster_radius, deriv_tol)
    sm = SpectralMeasure(
        q=seq.q, atoms=tuple(atoms), quotient=cq, provenance=Provenance.CENTRAL
    )
    # Cross-check against the positive-definite route when it is numerically
    # trustworthy; the plain inverse loses digits for barely-TPD input.
    if len(seq) >= 2 and margin > 1e-6:
        if sm.atoms:
            raise ModelError("positive-definite input produced point masses")
        pa, pb = _pd_polynomials(seq, len(seq) - 1)
        angles = TWO_PI * (np.arange(16) + 0.5) / 16
        want = _pd_density_values(pa, pb, np.exp(1j * angles))
        got = sm.density_grid(angles)
        tol = 1e-8 * (1.0 + spec_norm(seq.coeffs[0]))
        err = max(spec_norm(want[i] - got[i]) for i in range(len(angles)))
        if err > tol:
            raise ModelError(
                f"central and positive-definite densities disagree ({err:.3e})"
            )
    return sm


def _pd_density_values(pa, pb, zs: np.ndarray) -> np.ndarray:
    """(1/2pi) A(z)^-* A(0) A(z)^-1 with the B-form agreement asserted."""
    ia = np.linalg.inv(pa(zs))
    ib = np.linalg.inv(pb(zs))
    a0 = pa(0.0 + 0.0j)
    b0 = pb(0.0 + 0.0j)
    ia_h = np.conj(np.swapaxes(ia, -1, -2))
    ib_h = np.conj(np.swapaxes(ib, -1, -2))
    fa = ia_h @ a0 @ ia
    fb = ib @ b0 @ ib_h
    for k in range(fa.shape[0]):
        if spec_norm(fa[k] - fb[k]) > 1e-8 * (1.0 + spec_norm(fa[k])):
            raise ModelError(
                "first-column and last-row density forms disagree at "
                f"point {k}"
            )
    herm = 0.5 * (fa + np.conj(np.swapaxes(fa, -1, -2)))
    return herm / TWO_PI


def pd_measure(
    seq: HermSeq,
    n: int | None = None,
    psd_tol: float = DEFAULT_PSD_TOL,
    rank_rtol: float = DEFAULT_RANK_RTOL,
) -> SpectralMeasure:
    """Spectral measure of a TPD prefix via the positive-definite theory.

    Atom-free by construction; the quotient still provides the density, and
    `pd_density` provides the independent closed forms.
    """
    if n is None:
        n = len(seq) - 1
    prefix = seq.prefix(n + 1)
    if classify(prefix, psd_tol) is not Classification.TPD:
        raise ModelError("sequence is not Toeplitz-positive-definite")
    _pd_polynomials(prefix, n)  # validates the nonvanishing conditions
    cq = _central_quotient(gamma_from_covariance(prefix), n, rank_rtol)
    return SpectralMeasure(
        q=seq.q, atoms=(), quotient=cq, provenance=Provenance.PD_PATH
    )


def pd_density(
    seq: HermSeq,
    zeta: complex,
    n: int | None = None,
    psd_tol: float = DEFAULT_PSD_TOL,
) -> np.ndarray:
    """Density of the TPD measure at a unit-circle point, closed form.

    Returns (1/2pi) A(zeta)^-* A(0) A(zeta)^-1 after asserting agreement with
    the last-row form B(zeta)^-1 B(0) B(zeta)^-*.
    """
    z = complex(zeta)
    if abs(abs(z) - 1.0) > 1e-8:
        raise InvalidInputError(f"|zeta| = {abs(z)} is not on the unit circle")
    pa, pb = pd_polynomials(seq, n, psd_tol)
    return _pd_density_values(pa, pb, np.array([z / abs(z)]))[0]


def atomic_measure(atoms, q: int | None = None) -> SpectralMeasure:
    """Purely atomic measure from (point, weight) pairs; zero density part."""
    cleaned = []
    for point, weight in atoms:
        p = complex(point)
        if abs(abs(p) - 1.0) > 1e-8:
            raise InvalidInputError(f"atom location |{p}| not on the unit circle")
        w = re_mat(weight)
        cleaned.append(Atom(point=p / abs(p), weight=w))
    if not cleaned and q is None:
        raise InvalidInputError("need q for an empty atom list")
    q = q if q is not None else cleaned[0].weight.shape[0]
    return SpectralMeasure(
        q=q, atoms=tuple(cleaned), quotient=None, provenance=Provenance.ATOMS_ONLY
    )


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


def _min_nodes(sm: SpectralMeasure, j: int) -> int:
    deg = 0
    if sm.quotient is not None:
        deg = det_poly(sm.quotient.den).size - 1
    return 4 * (deg + abs(j) + 1)


NEAR_CIRCLE_NODE_CAP = 65536


def _pole_distance(sm: SpectralMeasure) -> float:
    """Distance from the circle to the nearest off-circle zero of det den.

    Zeros within DEFAULT_CLUSTER_RADIUS of the circle were already pulled
    out as point masses, so only the genuinely off-circle ones bound the
    width of the analyticity annulus the trapezoid rule relies on.
    """
    if sm.quotient is None:
        return np.inf
    db = det_poly(sm.quotient.den)
    if db.size < 2:
        return np.inf
    dists = np.abs(np.abs(np.roots(db[::-1])) - 1.0)
    off = dists[dists >= DEFAULT_CLUSTER_RADIUS]
    return float(off.min()) if off.size else np.inf


def _default_nodes(sm: SpectralMeasure, j_top: int) -> int:
    order = sm.quotient.order if sm.quotient is not None else 0
    base = max(1024, 16 * order * sm.q, _min_nodes(sm, j_top))
    dist = _pole_distance(sm)
    if dist < 0.04:
        # trapezoid error decays like exp(-nodes * dist), machine level
        # near nodes * dist = 40; grow the grid for near-circle poles but
        # keep the cost bounded, verify_recovery reports anything missed
        base = max(base, min(NEAR_CIRCLE_NODE_CAP, int(np.ceil(40.0 / dist))))
    return base


def _fourier_many(sm: SpectralMeasure, js, nodes: int) -> list[np.ndarray]:
    ang = _quadrature_angles(nodes, sm.atom_points())
    dens = sm.density_grid(ang)
    out = []
    for j in js:
        phases = np.exp(-1j * j * ang)
        coeff = (TWO_PI / nodes) * np.tensordot(phases, dens, axes=(0, 0))
        for atom in sm.atoms:
            coeff = coeff + atom.point ** (-j) * atom.weight
        out.append(coeff)
    return out


def fourier_coeff(sm: SpectralMeasure, j: int, nodes: int | None = None) -> np.ndarray:
    """j-th Fourier coefficient integral zeta^{-j} d mu(zeta).

    Quadrature runs on a uniform half-step-offset grid (rotated if needed to
    clear the atoms); point masses are added exactly.  ``nodes`` must be at
    least 4*(deg det den + |j| + 1).
    """
    need = _min_nodes(sm, j)
    if nodes is None:
        nodes = _default_nodes(sm, j)
    elif nodes < need:
        raise InvalidInputError(f"nodes = {nodes} below the required {need}")
    return _fourier_many(sm, [int(j)], nodes)[0]


def herglotz_transform(
    sm: SpectralMeasure, z: complex, nodes: int | None = None
) -> np.ndarray:
    """integral (zeta + z)/(zeta - z) d mu(zeta) for z in the open disk.

    For measures arising from a TND sequence this reproduces the Caratheodory
    function of the sequence.
    """
    zp = complex(z)
    if abs(zp) >= 1.0:
        raise InvalidInputError(f"|z| = {abs(zp)} not inside the open unit disk")
    if nodes is None:
        nodes = _default_nodes(sm, 0)
    ang = _quadrature_angles(nodes, sm.atom_points())
    zs = np.exp(1j * ang)
    dens = sm.density_grid(ang)
    kern = (zs + zp) / (zs - zp)
    out = (TWO_PI / nodes) * np.tensordot(kern, dens, axes=(0, 0))
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
    nodes: int | None = None,
    density_nodes: int = 360,
    psd_tol: float = DEFAULT_PSD_TOL,
) -> RecoveryReport:
    """Recover C_0..C_n from the measure and compare with the sequence.

    Also counts density nodes whose smallest eigenvalue dips below
    -psd_tol * (1 + ||C_0||) on an offset scan grid.
    """
    if seq.q != sm.q:
        raise InvalidInputError(f"block sizes differ: sequence {seq.q}, measure {sm.q}")
    js = list(range(len(seq)))
    if nodes is None:
        nodes = _default_nodes(sm, len(seq) - 1)
    coeffs = _fourier_many(sm, js, nodes)
    errs = tuple(float(spec_norm(coeffs[j] - seq.coeffs[j])) for j in js)
    if sm.atoms:
        mass = np.sum([a.weight for a in sm.atoms], axis=0)
    else:
        mass = np.zeros((sm.q, sm.q), dtype=complex)
    ang = _quadrature_angles(density_nodes, sm.atom_points())
    dens = sm.density_grid(ang)
    scale = 1.0 + spec_norm(seq.coeffs[0])
    lows = np.linalg.eigvalsh(dens)[:, 0]
    violations = int(np.count_nonzero(lows < -psd_tol * scale))
    max_err = max(errs)
    return RecoveryReport(
        max_error=float(max_err),
        tolerance=float(tol),
        passed=bool(max_err <= tol),
        errors_by_order=errs,
        atom_mass=mass,
        atom_mass_trace=float(np.real(np.trace(mass))),
        density_psd_violations=violations,
        density_nodes_checked=density_nodes,
    )


def ar_spectrum(
    seq: HermSeq,
    order: int,
    warn_tol: float = 1e-8,
    psd_tol: float = DEFAULT_PSD_TOL,
    rank_rtol: float = DEFAULT_RANK_RTOL,
) -> SpectralMeasure:
    """Autoregressive spectral estimate: the central measure of C_0..C_order.

    The requested order is authoritative.  Stored coefficients beyond it are
    compared against the central extension, continued with the predictor
    w_m = -den_m the measure's quotient already holds; disagreement means the
    data is not autoregressive of that order and raises ArOrderMismatchWarning.
    """
    if not 0 <= order < len(seq):
        raise InvalidInputError(f"order {order} outside stored range 0..{len(seq) - 1}")
    prefix = seq.prefix(order + 1)
    sm = central_measure(prefix, psd_tol=psd_tol, rank_rtol=rank_rtol)
    if len(seq) > order + 1:
        ext = _continue(prefix, -sm.quotient.den.coeffs[1:], len(seq), psd_tol)
        scale = 1.0 + spec_norm(seq.coeffs[0])
        off = [
            j
            for j in range(order + 1, len(seq))
            if spec_norm(seq.coeffs[j] - ext.coeffs[j]) > warn_tol * scale
        ]
        if off:
            warnings.warn(
                f"coefficients {off} differ from the central extension; the "
                f"sequence is not autoregressive of order {order}",
                ArOrderMismatchWarning,
                stacklevel=2,
            )
    return sm
