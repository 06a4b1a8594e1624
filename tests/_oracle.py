"""Reference implementations for the tests.

The library reads atoms off the compressed shift.  Three independent
routes compute the same point masses from the full central quotient so
tests can compare them: `compute_atoms`, the residues of num den^{-1}
read off den's kernel vectors at the unimodular zeros of det den; the
scalar-determinant route, `pole_limit` of num(z) adj(den(z)) / det den(z)
with the determinant/adjugate helpers, and `radial_atom_limit`, the limit of
(1 - r)/2 Phi(r u) as r -> 1.  `toeplitz_blocks` places the blocks of T_n one
by one, the definition `toeplitz_matrix` must reproduce, and `prefix_scan`
checks T_0, T_1, ... one eigvalsh at a time, the definition that
`toeplitz._scan` shortcuts by Cauchy interlacing.  `pd_density` is the
first-column form of the positive-definite density (`_pd_density_values`),
`pd_density_last_row` its last-row form, and `pd_density_gap` compares the
first-column form with a quotient's density at 16 points, an independent
route to the density that the tests hold the library's measures and the
recovery certificate against.  `density_kernel_coeffs` forms the Laurent
coefficients of H = (den* num + num* den) / 2 by direct products of the
quotient's coefficients, the definition the library's density certificate
reads off an FFT.  `shift_atoms_by_eig` reads the atoms of singular data off one
general eig of the compressed shift, the definition the library's
Hermitian route shortcuts.  Both atom routes here finish their weights with
`_atoms_from_weights`, which clips eigenvalues down to -ATOM_CLIP ||C_0|| to
zero and refuses lower ones: a residue is not a Gram matrix, while the
library's weights G P G* are, so it takes their Hermitian part and no
eigendecomposition.  `derivative` differentiates a matrix polynomial for the
polish and the pole limit.  `ball_membership`,
`rank_drop`, `psd_sqrt` and `numerical_rank` check extension balls and rank
profiles by their definitions.  `pinv`, the Moore-Penrose pseudoinverse
from one SVD, gives the ball parameters' textbook formulas, which
`toeplitz.ball_params` reads off the predictor's range instead.
`mat_to_wire` converts a matrix to its wire form one entry at a time, and
`write_density_csv` writes a measure document's density table one entry at
a time: the definitions that `serialize.mat_to_wire` and the CLI's `--csv`
writer shortcut with one array conversion each.  `conjugate_by_unitary`
(with `is_unitary`) builds the unitarily conjugated sequences of the
metamorphic tests.

The quadrature oracle integrates the density on a trapezoid grid, an
independent route to the orders the library reads off the Schwarz
formula's closed form:
`near_circle` clusters the zeros of det den near the circle, found by
`scalar_zeros` (np.roots of the scalar determinant `det_poly`, with
`poly_trim`; the package reads them off den's block companion, and
`row_companion_zeros` off its transpose),
Newton-polishes
them (`_polish`) and gives each its residue of num den^{-1}
(`_cluster_residues`); `_singular_part` subtracts the simple poles among
them, `_default_nodes` sizes the grid by the zeros it must resolve,
`_quadrature_angles` keeps the subtracted poles off the nodes and
`_fourier_many` takes every order from one FFT.  `quadrature_coeffs` and
`quadrature_herglotz` put them together, with the atoms in closed form.
`taylor_by_division` is the nested power-series division that
`caratheodory.taylor_coefficients` runs as one windowed recurrence.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from matspec.caratheodory import (
    NEAR_CIRCLE,
    CaratheodoryQuotient,
    _disk_point,
    pd_polynomials,
    rational_values,
)
from matspec.errors import DimensionError, InvalidInputError, MatSpecError, ModelError
from matspec.linalg import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_RTOL,
    _require_rel_tol,
    as_cmatrix,
    re_mat,
    spec_norm,
)
from matspec.matpoly import TRIM_RTOL, MatPoly, MatPolyStack
from matspec.measure import (
    ATOM_DROP,
    CLUSTER_RADIUS,
    DEFAULT_ROOT_TOL,
    TWO_PI,
    Atom,
    SpectralMeasure,
    _atom_coeffs,
    _check_root_tol,
    _circle_point,
    _clusters,
    _re_density,
)
from matspec.toeplitz import HermSeq, MatrixBall, toeplitz_matrix

# Radial points r = 1 - 2^{-k}, k = 1..RADIAL_STEPS, of `radial_atom_limit`.
RADIAL_STEPS = 12
# Relative threshold deciding whether a derivative value is zero.
DERIV_TOL = 1e-7
# Eigenvalues of an atom weight in [-ATOM_CLIP*||C_0||, 0) clip to zero.
ATOM_CLIP = 1e-9


class MultiplicityError(MatSpecError):
    """The zeros of det den clustered at an atom do not match den's kernel
    there: their count differs from its dimension, or den' is singular on
    it.  ``root`` is the atom, ``multiplicity`` the cluster size."""

    def __init__(self, message, root=None, multiplicity=None):
        super().__init__(message)
        self.root = root
        self.multiplicity = multiplicity


def by_angle(points: np.ndarray) -> np.ndarray:
    """Indices that sort points stably by angle in [0, 2pi), a point within
    CLUSTER_RADIUS below 2pi counting as just below 0: the atom order of
    `measure._clusters`."""
    angle = np.angle(points) % TWO_PI
    wrapped = np.where(angle > TWO_PI - CLUSTER_RADIUS, angle - TWO_PI, angle)
    return np.argsort(wrapped, kind="stable")


def chain_clusters(points: np.ndarray) -> list[list[int]]:
    """`measure._clusters` one point at a time: each point of the `by_angle`
    order joins the cluster of the point before it when at most
    CLUSTER_RADIUS away, and the last cluster wraps onto the first."""
    clusters: list[list[int]] = []
    for i in by_angle(points).tolist():
        if clusters and abs(points[i] - points[clusters[-1][-1]]) <= CLUSTER_RADIUS:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) > 1 and abs(points[clusters[0][0]] - points[clusters[-1][-1]]) <= CLUSTER_RADIUS:
        clusters[0] = clusters.pop() + clusters[0]
    return clusters


def _atoms_from_weights(
    points: np.ndarray, weights: np.ndarray, scale: float
) -> tuple[Atom, ...]:
    """Atoms at the unimodular ``points``, in their order, from the weights
    (k, q, q); ``scale`` is ||C_0||.

    Weights are Hermitian-projected; eigenvalues in [-ATOM_CLIP, 0) times
    ||C_0|| clip to zero, anything lower is a ModelError.  Atoms with
    ||X_v|| at most ATOM_DROP times ||C_0|| (removable singularities) are
    dropped.  The library's weights are Gram matrices and skip this pass;
    the residues of `compute_atoms` are not.
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


def compute_atoms(
    cq: CaratheodoryQuotient, root_tol: float = DEFAULT_ROOT_TOL
) -> tuple[Atom, ...]:
    """Point masses of the measure behind a rational Caratheodory quotient.

    The atoms are the clusters of the quotient's `near_circle` analysis
    whose polished point lies within root_tol of the circle; root_tol must
    lie in [0, NEAR_CIRCLE), the band that analysis covers.  At such a point v
    with a cluster of m zeros of det den, den(v) must have an m-dimensional
    kernel, else MultiplicityError; with X and Y its right and left kernel
    bases the weight is the residue

        X_v = -1/(2v) * num(v) X (Y* den'(v) X)^{-1} Y*.

    The weights are finished by `_atoms_from_weights`.
    """
    _check_root_tol(root_tol)
    res = near_circle(cq)
    rows = np.nonzero(np.abs(np.abs(res.points) - 1.0) <= root_tol)[0]
    if rows.size == 0:
        return ()
    rows = rows[by_angle(res.points[rows])]
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
    return _atoms_from_weights(points, val, spec_norm(re_mat(cq.num(0.0 + 0.0j))))


def shift_atoms_by_eig(
    t: np.ndarray, q: int, u_r: np.ndarray, s_r: np.ndarray, root_tol: float
) -> tuple[tuple[Atom, ...], int]:
    """Atoms of singular data and the dimension of the compressed shift's
    unitary part, from one general eig of the whole shift.

    The definition `measure._shift_atoms` shortcuts with Hermitian
    eigensolvers: W = B* T_n[q:, :-q] B, B = U_r s_r^{-1/2}, its eigenvalues
    within root_tol of the circle, conjugated and clustered, and the weight
    G P G* of each cluster, G = (U_r s_r^{1/2})[:q] and P the orthogonal
    projector onto the cluster's eigenvectors.
    """
    root = np.sqrt(s_r)
    b = u_r / root
    lam, vec = np.linalg.eig(b.conj().T @ t[q:, :-q] @ b)
    unitary = np.nonzero(np.abs(np.abs(lam) - 1.0) <= root_tol)[0]
    points, vec = np.conj(lam[unitary]), vec[:, unitary]
    clusters = _clusters(points)
    g = u_r[:q] * root
    means, weights = [], []
    for members in clusters:
        means.append(points[members].mean())
        basis = np.linalg.qr(vec[:, members])[0]
        weights.append((g @ basis) @ (g @ basis).conj().T)
    means = np.array(means, dtype=complex)
    weights = np.array(weights, dtype=complex).reshape(-1, q, q)
    atoms = _atoms_from_weights(means / np.abs(means), weights, spec_norm(t[:q, :q]))
    return atoms, unitary.size


class DegenerateZeroError(MatSpecError):
    """Every derivative of a polynomial is numerically zero at the point."""


class NoLimitError(MatSpecError):
    """A numeric limit did not stabilize across extrapolation steps."""


def require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_unitary(a) -> bool:
    """Whether a* a = I within DEFAULT_PSD_TOL * (1 + ||a||)."""
    m = require_square(as_cmatrix(a))
    q = m.shape[0]
    scale = 1.0 + spec_norm(m)
    return spec_norm(m.conj().T @ m - np.eye(q)) <= DEFAULT_PSD_TOL * scale


def conjugate_by_unitary(seq: HermSeq, u) -> HermSeq:
    """Coefficient-wise conjugation C_j -> U* C_j U by a unitary U."""
    um = as_cmatrix(u)
    if um.shape != (seq.q, seq.q):
        raise DimensionError(f"unitary shape {um.shape} != ({seq.q}, {seq.q})")
    if not is_unitary(um):
        raise InvalidInputError("conjugating matrix is not unitary within tolerance")
    return HermSeq([um.conj().T @ c @ um for c in seq.coeffs])


def toeplitz_blocks(seq, n: int) -> np.ndarray:
    """Block Toeplitz T_n = [C_{j-k}], one block at a time."""
    q = seq.q
    t = np.empty(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1):
            t[j * q : (j + 1) * q, k * q : (k + 1) * q] = seq.coeff(j - k)
    return t


def prefix_scan(seq, tol: float = DEFAULT_PSD_TOL) -> tuple[int | None, float]:
    """First k with T_k not nonnegative Hermitian (None when TND) and the
    smallest margin lambda_min(re T_k) / (1 + ||T_k||) over T_0..T_k; -inf
    when T_k fails the Hermiticity test ||T_k - T_k*|| <= tol (1 + ||T_k||)."""
    margin = math.inf
    for k in range(len(seq)):
        t = toeplitz_blocks(seq, k)
        if spec_norm(t - t.conj().T) > tol * (1.0 + spec_norm(t)):
            return k, -math.inf
        w = np.linalg.eigvalsh(re_mat(t))
        margin = min(margin, float(w[0]) / (1.0 + max(-w[0], w[-1])))
        if margin < -tol:
            return k, margin
    return None, margin


def horner(p: MatPoly, z) -> np.ndarray:
    """Horner evaluation of p at z, one ``out * z + c_k`` per step; shape
    z.shape + (q, q)."""
    zs = np.asarray(z, dtype=complex)
    out = np.broadcast_to(p.coeffs[-1], zs.shape + (p.q, p.q)).copy()
    for k in range(p.degree - 1, -1, -1):
        out = out * zs[..., None, None] + p.coeffs[k]
    return out


def poly_eval(c, z):
    """Scalar polynomial with coefficients c, lowest degree first, at z."""
    return npoly.polyval(z, np.asarray(c, dtype=complex))


def _pd_density_values(av: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """(1/2pi) A(z)^-* A(0) A(z)^-1, Hermitian-projected, from the values
    ``av`` of A at the points z and A(0) = ``a0``, its constant
    coefficient."""
    ia = np.linalg.inv(av)
    return _re_density(np.conj(np.swapaxes(ia, -1, -2)) @ a0 @ ia)


def pd_density(seq: HermSeq, zeta: complex) -> np.ndarray:
    """Density of the TPD measure at a unit-circle point, closed form:
    (1/2pi) A(zeta)^-* A(0) A(zeta)^-1 with A the first-column polynomial of
    `pd_polynomials`."""
    pa = pd_polynomials(seq)[0]
    return _pd_density_values(pa(_circle_point(zeta)), pa.coeffs[0])[0]


def pd_density_gap(seq: HermSeq, cq: CaratheodoryQuotient, points: int = 16) -> float:
    """Largest spectral-norm gap, relative to 1 + ||C_0||, between the
    inverse-Toeplitz density (1/2pi) A^-* A(0) A^-1 of the TPD sequence and
    the density (1/2pi) re num den^{-1} of ``cq`` at the ``points`` angles
    2 pi (k + 1/2) / points.  A gap above 1e-8 says ``cq`` is not the
    central quotient of ``seq``."""
    pa = pd_polynomials(seq)[0]
    zs = np.exp(1j * (TWO_PI * (np.arange(points) + 0.5) / points))
    gap = _pd_density_values(pa(zs), pa.coeffs[0]) - _re_density(rational_values(cq, zs))
    return float(np.max(np.linalg.svdvals(gap))) / (1.0 + spec_norm(seq.coeffs[0]))


def pd_density_last_row(seq: HermSeq, zeta: complex) -> np.ndarray:
    """(1/2pi) B(zeta)^-1 B(0) B(zeta)^-*, the density of a TPD sequence from
    the reversed last row B of inv(T_n) (Delsarte, Genin and Kamp, 1978),
    with B's blocks sliced here from `toeplitz_blocks`."""
    q, n = seq.q, len(seq) - 1
    tinv = np.linalg.inv(toeplitz_blocks(seq, n))
    last = tinv[n * q :].reshape(q, n + 1, q).swapaxes(0, 1)[::-1]
    bi = np.linalg.inv(MatPoly(last)(complex(zeta)))
    return bi @ last[0] @ bi.conj().T / (2.0 * np.pi)


def density_kernel_coeffs(cq: CaratheodoryQuotient) -> dict[int, np.ndarray]:
    """Laurent coefficients H_m of H(zeta) = (den* num + num* den) / 2 on the
    circle, keyed by m: den(zeta)* num(zeta) = sum_{j,k} den_j* num_k
    zeta^(k - j), one product at a time."""
    h: dict[int, np.ndarray] = {}
    for j, d in enumerate(cq.den.coeffs):
        for k, c in enumerate(cq.num.coeffs):
            term = 0.5 * d.conj().T @ c
            h[k - j] = h.get(k - j, 0.0) + term
            h[j - k] = h.get(j - k, 0.0) + term.conj().T
    return h


def adjugate(a) -> np.ndarray:
    """Adjugate (transposed cofactor matrix); adj(A) @ A = det(A) * I.

    For 1x1 input the adjugate is [[1]].  Works for singular matrices, which
    is what the determinant identity is needed for.
    """
    m = require_square(as_cmatrix(a))
    return _adjugate_stack(m[None, :, :])[0]


def _adjugate_stack(ms: np.ndarray) -> np.ndarray:
    """Adjugates of a stack shaped (N, q, q), computed via minors."""
    n, q, _ = ms.shape
    if q == 1:
        return np.ones((n, 1, 1), dtype=complex)
    out = np.empty_like(ms)
    for i in range(q):
        rows = [r for r in range(q) if r != i]
        for j in range(q):
            cols = [c for c in range(q) if c != j]
            minor = ms[:, rows, :][:, :, cols]
            # adj[j, i] = (-1)^(i+j) * det(minor of row i, col j)
            out[:, j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return out


def _pow2_nodes(min_count: int) -> np.ndarray:
    """The N-th roots of unity e^{-2 pi i k / N}, N the least power of two
    above min_count, at which the reference `adjugate_poly` and
    `matpoly_mul` evaluate by Horner, apart from `det_poly`'s FFT."""
    n = 1
    while n <= min_count:
        n *= 2
    return np.exp(-2j * np.pi * np.arange(n) / n)


def adjugate_poly(p: MatPoly) -> MatPoly:
    """Matrix polynomial adj(p(z)); satisfies adj(p) p = det(p) I pointwise."""
    p = p.trim()
    if p.q == 1:
        return MatPoly(np.ones((1, 1, 1), dtype=complex))
    target = (p.q - 1) * p.degree
    if target == 0:
        return MatPoly(_adjugate_stack(p.coeffs[:1].copy()))
    nodes = _pow2_nodes(p.q * p.degree)
    adjs = _adjugate_stack(p(nodes))
    coeffs = np.fft.ifft(adjs, axis=0)[: target + 1]
    return MatPoly(coeffs).trim()


def matpoly_mul(a: MatPoly, b: MatPoly) -> MatPoly:
    """Product polynomial a(z) b(z) via interpolation."""
    if a.q != b.q:
        raise DimensionError(f"block sizes differ: {a.q} vs {b.q}")
    target = a.degree + b.degree
    if target == 0:
        return MatPoly(a.coeffs[0] @ b.coeffs[0])
    nodes = _pow2_nodes(target)
    vals = a(nodes) @ b(nodes)
    coeffs = np.fft.ifft(vals, axis=0)[: target + 1]
    return MatPoly(coeffs)


def poly_trim(c) -> np.ndarray:
    """Drop trailing scalar coefficients below ``TRIM_RTOL * max|coeff|``."""
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError("expected a nonempty 1-d coefficient array")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("polynomial has non-finite coefficients")
    top = np.max(np.abs(arr))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(np.abs(arr) > TRIM_RTOL * top)[0]
    return arr[: keep[-1] + 1].copy()


def det_poly(p: MatPoly) -> np.ndarray:
    """Scalar coefficients of det p(z), of degree at most q deg p, by
    interpolation at the N-th roots of unity, N = 2^k the least power of two
    above that degree: p(e^{-2 pi i m / N}) is entry m of the length-N FFT of
    the coefficients, and the inverse FFT of their determinants holds the
    coefficients.  O(N q^2 log N + N q^3)."""
    p = p.trim()
    target = p.q * p.degree
    if target == 0:
        return np.atleast_1d(np.linalg.det(p.coeffs[0]))
    size = 2 ** target.bit_length()
    dets = np.linalg.det(np.fft.fft(p.coeffs, size, axis=0))
    return poly_trim(np.fft.ifft(dets)[: target + 1])


def row_companion_zeros(den: MatPoly) -> np.ndarray:
    """Zeros of det den as the reciprocal nonzero eigenvalues of den's block
    companion laid out by rows: -den_0^{-1} den_1, ..., -den_0^{-1} den_d in
    its first block row and I on its block subdiagonal, the transpose of
    the layout `CaratheodoryQuotient.zeros` reads.  den_0 must be
    invertible."""
    den = den.trim()
    d, q = den.degree, den.q
    f = np.eye(d * q, k=-q, dtype=complex)
    f[:q] = -np.hstack(np.linalg.solve(den.coeffs[0], den.coeffs[1:]))
    lam = np.linalg.eigvals(f)
    return 1.0 / lam[lam != 0.0]


def scalar_zeros(den: MatPoly) -> np.ndarray:
    """Zeros of det den from np.roots of its scalar coefficients
    (`det_poly`), apart from the block companion of
    `CaratheodoryQuotient.zeros`.  The zero polynomial, or a determinant
    that overflows, is an InvalidInputError.  A simple zero comes back to
    about eps times its condition number, an m-fold one scattered by
    about eps^(1/m)."""
    with np.errstate(over="ignore", invalid="ignore"):
        det = det_poly(den)
    if det.size == 1 and det[0] == 0.0:
        raise InvalidInputError("det den is the zero polynomial")
    return np.roots(det[::-1])


def derivative(p: MatPoly, order: int = 1) -> MatPoly:
    """The order-th derivative of the matrix polynomial p."""
    if order < 0:
        raise InvalidInputError("derivative order must be nonnegative")
    arr = p.coeffs
    for _ in range(order):
        if arr.shape[0] == 1:
            arr = np.zeros((1, p.q, p.q), dtype=complex)
            break
        arr = arr[1:] * np.arange(1, arr.shape[0])[:, None, None]
    return MatPoly(arr)


def poly_derive(c, order: int = 1) -> np.ndarray:
    d = npoly.polyder(np.asarray(c, dtype=complex), order)
    return np.atleast_1d(d)


def pole_limit(g: MatPoly, h, w: complex, ell: int) -> np.ndarray:
    """Exact limit of (z - w)^ell * g(z)/h(z) as z -> w.

    ``h`` is a scalar polynomial with an m-fold zero at w (m = 0 allowed, the
    removable case); a derivative of h counts as zero at w below DERIV_TOL
    times its largest coefficient.  Requires ell <= m; the limit equals

        m!/(m - ell)! * g^(m-ell)(w) / h^(m)(w),

    finite whenever the quotient's pole order at w is at most ell.
    """
    if ell < 0:
        raise InvalidInputError("ell must be nonnegative")
    hc = poly_trim(h)
    if hc.size == 1 and hc[0] == 0.0:
        raise DegenerateZeroError("denominator is the zero polynomial")
    for m in range(hc.size):
        dk = poly_derive(hc, m) if m else hc
        hm = poly_eval(dk, w)
        if abs(hm) > DERIV_TOL * float(np.max(np.abs(dk))):
            break
    else:
        raise DegenerateZeroError(
            f"all derivatives of the denominator vanish at {w}"
        )
    if ell > m:
        raise InvalidInputError(
            f"requested power {ell} exceeds the zero multiplicity {m} at {w}"
        )
    scale = math.factorial(m) / math.factorial(m - ell)
    return (scale / hm) * derivative(g, m - ell)(w)


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


def pinv(a, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of any (m, n) matrix, shape (n, m), from
    one SVD; singular values at or below ``rel_tol * sigma_max`` count as
    zero, and ``rel_tol`` must lie strictly between 0 and 1."""
    m = as_cmatrix(a)
    _require_rel_tol(rel_tol)
    u, s, vh = np.linalg.svd(m)
    keep = s > rel_tol * s.max(initial=0.0)
    uk, vk = u[:, : s.size][:, keep], vh[: s.size][keep]
    return (vk.conj().T * (1.0 / s[keep])) @ uk.conj().T


def numerical_rank(a) -> int:
    """Number of singular values above ``DEFAULT_RANK_RTOL * sigma_max``."""
    s = np.linalg.svd(as_cmatrix(a), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_RANK_RTOL * s[0]))


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues clip to 0."""
    m = require_square(as_cmatrix(a))
    w, v = np.linalg.eigh(re_mat(m))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def ball_membership(ball: MatrixBall, x) -> bool:
    """Whether x lies in the ball, i.e. x = center + sqrt(left) K sqrt(right)
    for some contraction K.

    Equivalent to the three conditions: the candidate contraction
    sqrt(left)' (x - center) sqrt(right)' has norm <= 1, and x - center is
    range-compatible with left (row space) and right (column space), each
    within DEFAULT_PSD_TOL.
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
    if spec_norm(k) > 1.0 + DEFAULT_PSD_TOL:
        return False
    lproj = ball.left @ pinv(ball.left)
    if spec_norm(lproj @ d - d) > DEFAULT_PSD_TOL * scale:
        return False
    rproj = pinv(ball.right) @ ball.right
    if spec_norm(d @ rproj - d) > DEFAULT_PSD_TOL * scale:
        return False
    return True


def rank_drop(seq: HermSeq, n: int) -> bool:
    """True iff rank T_n == rank T_{n-1} (the extension freezes)."""
    if not 1 <= n < len(seq):
        raise IndexError(f"order {n} outside stored range 1..{len(seq) - 1}")
    t, q = toeplitz_matrix(seq, n), seq.q
    return numerical_rank(t) == numerical_rank(t[:-q, :-q])


def mat_to_wire(m) -> list:
    """A q x q matrix as rows of [re, im] pairs, entry by entry."""
    arr = np.asarray(m, dtype=complex)
    return [[[float(np.real(arr[i, j])), float(np.imag(arr[i, j]))]
             for j in range(arr.shape[1])]
            for i in range(arr.shape[0])]


def write_density_csv(path, doc: dict) -> None:
    """The measure document's density table as CSV: the angle, then each
    entry's re and im parts in row-major order, as repr strings."""
    samples = doc["density_samples"]
    q = doc["q"]
    header = ["angle"]
    for i in range(q):
        for j in range(q):
            header += [f"d{i}{j}_re", f"d{i}{j}_im"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in samples:
            row = [repr(s["angle"])]
            for i in range(q):
                for j in range(q):
                    row += [repr(s["matrix"][i][j][0]), repr(s["matrix"][i][j][1])]
            writer.writerow(row)


# -- the quadrature oracle ---------------------------------------------------


class _Residues(NamedTuple):
    """Clusters of zeros of det den near the circle, one row each."""

    members: list[np.ndarray]  # zeros of det den in each cluster
    points: np.ndarray  # (k,) polished means
    sizes: np.ndarray  # (k,) zeros in the cluster
    kernel: np.ndarray  # (k,) dimension of den's kernel at the point
    residues: np.ndarray  # (k, q, q) of num den^{-1}; NaN unless kernel == size


def near_circle(cq: CaratheodoryQuotient) -> _Residues:
    """The zeros of det den with ||z| - 1| < NEAR_CIRCLE, clustered at
    CLUSTER_RADIUS, each cluster mean Newton-polished on den and given
    its residue of num den^{-1} (see `_cluster_residues`)."""
    zs = scalar_zeros(cq.den)
    near = zs[np.abs(np.abs(zs) - 1.0) < NEAR_CIRCLE]
    return _cluster_residues(cq, [near[c] for c in _clusters(near)])


def taylor_by_division(cq: CaratheodoryQuotient, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of num den^{-1} by nested
    power-series division, one product at a time:
    Phi_k = (num_k - sum_{i<k} Phi_i den_{k-i}) den_0^{-1}."""
    q = cq.num.q
    nc, dc = cq.num.coeffs, cq.den.coeffs
    d0_inv = np.linalg.inv(dc[0])
    out = np.zeros((count, q, q), dtype=complex)
    for k in range(count):
        acc = nc[k].copy() if k < nc.shape[0] else np.zeros((q, q), dtype=complex)
        for i in range(k):
            if k - i < dc.shape[0]:
                acc -= out[i] @ dc[k - i]
        out[k] = acc @ d0_inv
    return out


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
    dden = derivative(cq.den)
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
    """Reads the quadrature's poles off the quotient's `near_circle`
    clusters.

    A cluster is subtracted where all its zeros lie outside the circle and
    its polished point p is a simple pole of num den^{-1} with |p| > 1: den(p)
    has a kernel of the cluster's size, so a cluster of m zeros is one pole
    with a rank-m residue.  Roundoff splits such a pole, and subtracting it
    at the cluster mean leaves a dipole c / (z - p)^2 with |c| tiny, whose
    alias on N nodes is at most N |c| / 4.  The grid resolves the zeros of
    the other clusters and those outside the NEAR_CIRCLE band.
    """
    zs, res = scalar_zeros(sm.quotient.den), near_circle(sm.quotient)
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
    poly = cq.num.trim().degree + (sm.q - 1) * cq.den.trim().degree - scalar_zeros(cq.den).size
    floor = 40.0 / NEAR_CIRCLE_NODE_CAP
    decay = int(np.ceil(40.0 / max(np.min(dist), floor))) if dist.size else 0
    return max(64, abs(j_top) + max(decay, poly + 1))


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


def quadrature_coeffs(sm: SpectralMeasure, js) -> np.ndarray:
    """Fourier coefficients of the orders js by the quadrature; shape
    (J, q, q): `_fourier_many` takes the smooth part on `_default_nodes`
    nodes, and the atoms and subtracted poles are added in closed form."""
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


def quadrature_herglotz(sm: SpectralMeasure, z: complex) -> np.ndarray:
    """Herglotz transform by the quadrature: the smooth density's orders
    0..J, J = `_default_nodes`(0), from one FFT, summed as
    c_0 + 2 sum c_j z^j, plus the subtracted poles and the atoms in closed
    form."""
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
