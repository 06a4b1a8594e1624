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
first-column form of the positive-definite density, which the library
compares with the quotient's in its cross-check, and `pd_density_last_row`
its last-row form.  `density_kernel_coeffs` forms the Laurent coefficients
of H = (den* num + num* den) / 2 by direct products of the quotient's
coefficients, the definition the library's density certificate reads off
an FFT.  `shift_atoms_by_eig` reads the atoms of singular data off one
general eig of the compressed shift, the definition the library's
Hermitian route shortcuts.  `ball_membership`,
`rank_drop`, `psd_sqrt` and `numerical_rank` check extension balls and rank
profiles by their definitions.  `pinv`, the Moore-Penrose pseudoinverse
from one SVD, gives the ball parameters' textbook formulas, which
`toeplitz.ball_params` reads off the predictor's range instead.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from matspec.caratheodory import CaratheodoryQuotient, _clusters, pd_polynomials, rational_values
from matspec.errors import DimensionError, InvalidInputError, MatSpecError
from matspec.linalg import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_RTOL,
    _require_rel_tol,
    as_cmatrix,
    re_mat,
    require_square,
    spec_norm,
)
from matspec.matpoly import MatPoly, _pow2_nodes, poly_trim
from matspec.measure import (
    DEFAULT_ROOT_TOL,
    Atom,
    _atoms_from_weights,
    _by_angle,
    _check_root_tol,
    _circle_point,
    _pd_density_values,
)
from matspec.toeplitz import HermSeq, MatrixBall, toeplitz_matrix

# Radial points r = 1 - 2^{-k}, k = 1..RADIAL_STEPS, of `radial_atom_limit`.
RADIAL_STEPS = 12
# Relative threshold deciding whether a derivative value is zero.
DERIV_TOL = 1e-7


class MultiplicityError(MatSpecError):
    """The zeros of det den clustered at an atom do not match den's kernel
    there: their count differs from its dimension, or den' is singular on
    it.  ``root`` is the atom, ``multiplicity`` the cluster size."""

    def __init__(self, message, root=None, multiplicity=None):
        super().__init__(message)
        self.root = root
        self.multiplicity = multiplicity


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

    The weights are finished by `_atoms_from_weights`.
    """
    _check_root_tol(root_tol)
    res = cq.near_circle
    rows = np.nonzero(np.abs(np.abs(res.points) - 1.0) <= root_tol)[0]
    if rows.size == 0:
        return ()
    rows = rows[_by_angle(res.points[rows])]
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
    order = _by_angle(means)
    weights = np.array(weights, dtype=complex).reshape(-1, q, q)[order]
    atoms = _atoms_from_weights(means[order] / np.abs(means[order]), weights, spec_norm(t[:q, :q]))
    return atoms, unitary.size


class DegenerateZeroError(MatSpecError):
    """Every derivative of a polynomial is numerically zero at the point."""


class NoLimitError(MatSpecError):
    """A numeric limit did not stabilize across extrapolation steps."""


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


def pd_density(seq: HermSeq, zeta: complex) -> np.ndarray:
    """Density of the TPD measure at a unit-circle point, closed form:
    (1/2pi) A(zeta)^-* A(0) A(zeta)^-1 with A the first-column polynomial of
    `pd_polynomials`."""
    pa = pd_polynomials(seq)[0]
    return _pd_density_values(pa(_circle_point(zeta)), pa.coeffs[0])[0]


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
    return (scale / hm) * g.derivative(m - ell)(w)


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
