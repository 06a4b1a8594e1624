"""Random sequence generators with exactly known Fourier coefficients.

Every generator returns coefficient lists computed in closed form from a
known measure (finite atom sets, trigonometric-polynomial densities, or
mixtures), so recovered coefficients can be compared against ground truth
without trusting the code under test.
"""

import numpy as np

from matspec import HermSeq, ball_params

from _oracle import psd_sqrt


def random_psd(rng, q, scale=1.0):
    g = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    h = g @ g.conj().T
    # symmetrize so the result is Hermitian bit for bit
    return (scale / (2.0 * q)) * (h + h.conj().T)


def random_unitary(rng, q):
    g = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    qm, r = np.linalg.qr(g)
    d = np.diag(r)
    return qm * (d / np.abs(d))[None, :]


def separated_angles(rng, count, min_sep=0.4):
    # rejection sample so the atoms stay well apart on the circle
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=count))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
        if count == 1 or float(np.min(gaps)) > min_sep:
            return ang


def atomic_coeffs(rng, q, count, n_atoms, points=None):
    """Coefficients of a purely atomic measure; returns (coeffs, atoms).

    The ``n_atoms`` locations are drawn well apart unless ``points`` gives
    them."""
    if points is None:
        points = np.exp(1j * separated_angles(rng, n_atoms))
    weights = [random_psd(rng, q) for _ in range(n_atoms)]
    coeffs = []
    for j in range(count):
        acc = np.zeros((q, q), dtype=complex)
        for u, w in zip(points, weights):
            acc = acc + u ** (-j) * w
        coeffs.append(acc)
    return coeffs, list(zip(points, weights))


def trig_coeffs(rng, q, count, deg):
    """Coefficients of the density Q(zeta)* Q(zeta) dtheta/(2pi)."""
    qs = [rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
          for _ in range(deg + 1)]
    coeffs = []
    for j in range(count):
        acc = np.zeros((q, q), dtype=complex)
        for k in range(deg + 1 - j):
            acc = acc + qs[k].conj().T @ qs[k + j]
        # symmetrize C_0 so it is Hermitian bit for bit, as in random_psd
        coeffs.append(0.5 * (acc + acc.conj().T) if j == 0 else acc)
    return coeffs


def mixed_coeffs(rng, q, count, n_atoms=1, deg=2):
    atom_part, atoms = atomic_coeffs(rng, q, count, n_atoms)
    trig_part = trig_coeffs(rng, q, count, deg)
    return [a + t for a, t in zip(atom_part, trig_part)], atoms


def direct_sum(coeffs_a, coeffs_b):
    out = []
    for a, b in zip(coeffs_a, coeffs_b):
        qa, qb = a.shape[0], b.shape[0]
        m = np.zeros((qa + qb, qa + qb), dtype=complex)
        m[:qa, :qa] = a
        m[qa:, qa:] = b
        out.append(m)
    return out


def atom_free_singular_coeffs(kind):
    """C_0..C_4, q = 2, of a measure with no atom whose T_4 is singular:
    0 (+) AR(1) with rho = 0.6 ("zero+ar1"), or the MA(1) density
    b(zeta) b(zeta)* / 2pi of rank 1, b = b_0 + b_1 zeta ("ma-rank1")."""
    if kind == "zero+ar1":
        return direct_sum([np.zeros((1, 1))] * 5, [np.array([[0.6**j]]) for j in range(5)])
    b0, b1 = np.array([[1.0], [0.5j]]), np.array([[0.3], [-0.2]])
    return [b0 @ b0.conj().T + b1 @ b1.conj().T, b1 @ b0.conj().T] + [np.zeros((2, 2))] * 3


def conjugated(coeffs, u):
    return [u.conj().T @ c @ u for c in coeffs]


def random_tpd_seq(rng, q, n, kmax=0.7):
    """TPD sequence built by walking strictly inside the admissibility balls."""
    c0 = random_psd(rng, q) + 0.3 * np.eye(q)
    seq = HermSeq([c0])
    for _ in range(n):
        ball = ball_params(seq, len(seq) - 1)
        g = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        k = (kmax * rng.uniform(0.2, 1.0) / np.linalg.norm(g, 2)) * g
        x = ball.center + psd_sqrt(ball.left) @ k @ psd_sqrt(ball.right)
        seq = seq.append(x)
    return seq


def var1_coeffs(rng, q, rho, count, others=(0.3, 0.8)):
    """Covariances C_j = A^j Sigma of a VAR(1) process x_t = A x_{t-1} + e_t.

    A = V D V^{-1} has spectral radius exactly ``rho``; Sigma solves the
    Lyapunov equation Sigma = A Sigma A* + Q elementwise in the eigenbasis,
    S_ik = P_ik / (1 - d_i conj(d_k)) with Q = V P V*.  The central extension
    of any prefix C_0..C_n, n >= 1, is the whole sequence.
    """
    def cnormal():
        return rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))

    mods = rho * rng.uniform(others[0], others[1], size=q)
    mods[0] = rho
    d = mods * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=q))
    qm, r = np.linalg.qr(cnormal())
    u = qm * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    nmat = cnormal()
    v = u @ (np.eye(q) + 0.4 * nmat / np.linalg.norm(nmat, 2))
    vinv = np.linalg.inv(v)
    a = v @ np.diag(d) @ vinv
    b = cnormal()
    qnoise = b @ b.conj().T / q + 0.2 * np.eye(q)
    p = vinv @ qnoise @ vinv.conj().T
    s = v @ (p / (1.0 - d[:, None] * np.conj(d)[None, :])) @ v.conj().T
    coeffs = [0.5 * (s + s.conj().T)]
    for _ in range(count - 1):
        coeffs.append(a @ coeffs[-1])
    return coeffs


def jittered_atomic_coeffs(rng, q, count, n_atoms, rank, pair_gap=None):
    """Coefficients of ``n_atoms`` atoms on a jittered grid with rank-``rank``
    PSD weights; returns (coeffs, atoms).

    With ``pair_gap`` set, the last atom is replaced by a twin of the first,
    ``pair_gap`` radians away.  Same draws as the benchmark's atomic inputs.
    """
    offset = rng.uniform(0.0, 2.0 * np.pi)
    jitter = rng.uniform(-0.3, 0.3, size=n_atoms)
    angles = offset + 2.0 * np.pi * (np.arange(n_atoms) + jitter) / n_atoms
    if pair_gap is not None:
        angles[-1] = angles[0] + pair_gap
    atoms = []
    for ang in angles:
        b = rng.normal(size=(q, rank)) + 1j * rng.normal(size=(q, rank))
        w = b @ b.conj().T
        w = rng.uniform(0.5, 1.5) * w / np.trace(w).real * rank
        atoms.append((complex(np.exp(1j * ang)), 0.5 * (w + w.conj().T)))
    coeffs = []
    for j in range(count):
        acc = sum(u ** (-j) * w for u, w in atoms)
        coeffs.append(0.5 * (acc + acc.conj().T) if j == 0 else acc)
    return coeffs, atoms
