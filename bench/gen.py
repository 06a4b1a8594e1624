"""Closed-form benchmark inputs.

Every case is a measure whose Fourier coefficients C_j = integral of
zeta^{-j} d mu are known in closed form, so the benchmark can check results
without running the code under test to build its inputs:

- block VAR(1) covariances C_j = A^j Sigma, Sigma from a Lyapunov solve in
  the eigenbasis of A (absolutely continuous, central extension exact);
- trigonometric densities Q(zeta)* Q(zeta) dtheta / 2pi (degree n);
- purely atomic measures on a jittered grid, optionally with one close pair;
- direct sums of an atomic block and a VAR(1) block.

Case parameters come from a fixed stratified design: the categorical strata
cycle in a fixed order, and the continuous parameters of each stratum (n, m,
atom load, VAR(1) radius) follow an additive low-discrepancy sequence with a
fixed offset per stratum.  The seed draws everything else: matrices,
eigenvalues, atom positions and weights.  Every cycle of the op list visits
all strata, successive cycles fill in the n range evenly, and per-op time
depends mostly on the design, so medians and quantiles of per-op times move
little from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
# Additive recurrence constants for up to three continuous dimensions
# (powers of the inverse plastic number; Roberts' R_d sequence).
_PLASTIC = 1.324717957244746
ALPHAS = tuple(1.0 / _PLASTIC ** (k + 1) for k in range(3))
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2 = math.sqrt(2.0)

KIND_IDS = {"measure": 1, "extend": 2, "cli_spectrum": 3, "growth": 4}


@dataclass
class Case:
    """One generated input family member with its closed-form coefficients.

    ``atoms`` lists (point, weight) pairs of the true measure (empty when it
    is absolutely continuous).  ``exact_from`` is the smallest prefix order m
    from which the central extension reproduces the closed form, or None
    when the central extension differs from the generating measure.
    """

    family: str
    q: int
    n: int
    var_a: np.ndarray | None = None
    var_sigma: np.ndarray | None = None
    trig_q: list | None = None
    atoms: list = field(default_factory=list)
    blocks: tuple[int, int] | None = None
    exact_from: int | None = None
    label: str = ""

    def coeffs(self, count: int) -> list[np.ndarray]:
        if self.family == "var1":
            return _var1_coeffs(self.var_a, self.var_sigma, count)
        if self.family == "trig":
            return _trig_coeffs(self.trig_q, count)
        if self.family == "atomic":
            return _atomic_coeffs(self.atoms, self.q, count)
        if self.family == "dsum":
            qa, _ = self.blocks
            left = _atomic_coeffs([(u, w[:qa, :qa]) for u, w in self.atoms], qa, count)
            right = _var1_coeffs(self.var_a, self.var_sigma, count)
            return [_block_diag(a, b) for a, b in zip(left, right)]
        raise ValueError(f"unknown family {self.family!r}")


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    qa, qb = a.shape[0], b.shape[0]
    m = np.zeros((qa + qb, qa + qb), dtype=complex)
    m[:qa, :qa] = a
    m[qa:, qa:] = b
    return m


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _cnormal(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _var1_coeffs(a, sigma, count):
    out = [sigma]
    for _ in range(count - 1):
        out.append(a @ out[-1])
    return out


def _trig_coeffs(qs, count):
    deg = len(qs) - 1
    q = qs[0].shape[0]
    out = []
    for j in range(count):
        acc = np.zeros((q, q), dtype=complex)
        for k in range(max(0, deg + 1 - j)):
            acc = acc + qs[k].conj().T @ qs[k + j]
        out.append(_herm(acc) if j == 0 else acc)
    return out


def _atomic_coeffs(atoms, q, count):
    out = []
    for j in range(count):
        acc = np.zeros((q, q), dtype=complex)
        for u, w in atoms:
            acc = acc + u ** (-j) * w
        out.append(_herm(acc) if j == 0 else acc)
    return out


def var1(rng, q: int, rho: float, others: tuple[float, float] = (0.3, 0.8)):
    """A = V D V^{-1} with spectral radius exactly ``rho``; returns (A, Sigma).

    Sigma solves Sigma = A Sigma A* + Q; in the eigenbasis the solve is
    elementwise, S_ik = P_ik / (1 - d_i conj(d_k)) with Q = V P V*.
    """
    mods = rho * rng.uniform(others[0], others[1], size=q)
    mods[0] = rho
    d = mods * np.exp(1j * rng.uniform(0.0, TWO_PI, size=q))
    g = _cnormal(rng, q, q)
    qm, r = np.linalg.qr(g)
    u = qm * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    nmat = _cnormal(rng, q, q)
    v = u @ (np.eye(q) + 0.4 * nmat / np.linalg.norm(nmat, 2))
    vinv = np.linalg.inv(v)
    a = v @ np.diag(d) @ vinv
    b = _cnormal(rng, q, q)
    qnoise = b @ b.conj().T / q + 0.2 * np.eye(q)
    p = vinv @ qnoise @ vinv.conj().T
    s = p / (1.0 - d[:, None] * np.conj(d)[None, :])
    sigma = _herm(v @ s @ v.conj().T)
    return a, sigma


def trig(rng, q: int, deg: int):
    """Q(z) = sum_k Q_k z^k with a dominant Q_0, so Q stays invertible on the
    closed disk and the density is well inside the positive cone."""
    qs = []
    for k in range(deg + 1):
        g = _cnormal(rng, q, q) / math.sqrt(2.0 * q)
        qs.append(g * 0.6 ** k)
    qs[0] = qs[0] + 2.5 * np.eye(q)
    return qs


def jittered_atoms(rng, q: int, count: int, rank: int, pair_gap: float | None):
    """``count`` atoms on a jittered grid with rank-``rank`` PSD weights.

    With ``pair_gap`` set, the last atom is replaced by a twin of the first,
    ``pair_gap`` radians away.
    """
    offset = rng.uniform(0.0, TWO_PI)
    jitter = rng.uniform(-0.3, 0.3, size=count)
    angles = offset + TWO_PI * (np.arange(count) + jitter) / count
    if pair_gap is not None and count >= 2:
        angles[-1] = angles[0] + pair_gap
    atoms = []
    for ang in angles:
        b = _cnormal(rng, q, rank)
        w = b @ b.conj().T
        w = _herm(rng.uniform(0.5, 1.5) * w / np.trace(w).real * rank)
        atoms.append((complex(np.exp(1j * ang)), w))
    return atoms


def _frac(x: float) -> float:
    return x - math.floor(x)


@dataclass(frozen=True)
class Stratum:
    family: str
    q: int
    param: float | None = None


WORKLOAD_STRATA = {
    "tpd": [Stratum(f, q) for q in (1, 2, 4) for f in ("var1", "trig")],
    "degenerate": [
        Stratum(f, q, gap)
        for q in (1, 2, 4)
        for f, gap in (("atomic", None), ("atomic", 1e-2), ("atomic", 1e-3),
                       ("dsum", None))
        if not (f == "dsum" and q == 1)
    ],
    "near-boundary": [
        Stratum("var1", q, 1.0 - eps)
        for q in (1, 2, 4)
        for eps in (1e-2, 1e-3, 1e-4, 1e-5)
    ],
}

N_RANGE = {"tpd": (8, 32), "degenerate": (8, 32), "near-boundary": (4, 12)}
M_RANGE = (4, 12)


def _int_in(lo: int, hi: int, u: float) -> int:
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


class Design:
    """Case sequence of one workload: the design is fixed, the seed draws
    the matrices, so the same seed always gives the same inputs."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOAD_STRATA:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.strata = WORKLOAD_STRATA[workload]
        # fixed, distinct per stratum, so one cycle mixes small and large n
        self._offsets = [[_frac(0.5 + k * GOLDEN + d * SQRT2) for d in range(3)]
                         for k in range(len(self.strata))]

    @property
    def cycle(self) -> int:
        """Number of ops after which every stratum has been visited once."""
        return len(self.strata)

    def case(self, kind: str, i: int, n: int | None = None) -> Case:
        """Case ``i`` of op kind ``kind``; ``n`` overrides the drawn order."""
        s = len(self.strata)
        k = i % s
        j = i // s
        st = self.strata[k]
        u = [_frac(self._offsets[k][d] + j * ALPHAS[d]) for d in range(3)]
        rng = np.random.default_rng([self.seed, KIND_IDS[kind], i])
        if n is None:
            if kind == "extend":
                n = _int_in(*M_RANGE, u[0])
            else:
                n = _int_in(*N_RANGE[self.workload], u[0])
        return build_case(st, n, u[1], u[2], rng)


def build_case(st: Stratum, n: int, u: float, v: float, rng) -> Case:
    """Case of stratum ``st`` at order ``n``; ``u`` and ``v`` in [0, 1) place
    the continuous parameters (atom load or VAR(1) radius)."""
    q = st.q
    if st.family == "var1":
        if st.param is None:
            rho = 0.3 + 0.5 * u
            label = f"var1 q={q} n={n} rho={rho:.3f}"
        else:
            rho = st.param
            label = f"var1 q={q} n={n} rho=1-{1.0 - rho:.0e}"
        a, sigma = var1(rng, q, rho)
        return Case("var1", q, n, var_a=a, var_sigma=sigma, exact_from=1,
                    label=label)
    if st.family == "trig":
        return Case("trig", q, n, trig_q=trig(rng, q, n), label=f"trig q={q} n={n}")
    if st.family == "atomic":
        rank = (q + 1) // 2
        load = 0.25 + 0.65 * u
        count = max(2, round(load * n * q / rank))
        atoms = jittered_atoms(rng, q, count, rank, st.param)
        gap = "" if st.param is None else f" pair={st.param:.0e}"
        return Case("atomic", q, n, atoms=atoms,
                    exact_from=math.ceil(count * rank / q),
                    label=f"atomic q={q} n={n} atoms={count}{gap}")
    if st.family == "dsum":
        qa = q // 2
        qd = q - qa
        rank = (qa + 1) // 2
        load = 0.25 + 0.65 * u
        count = max(2, round(load * n * qa / rank))
        small = jittered_atoms(rng, qa, count, rank, None)
        atoms = [(p, _block_diag(w, np.zeros((qd, qd), dtype=complex)))
                 for p, w in small]
        a, sigma = var1(rng, qd, 0.3 + 0.5 * v)
        return Case("dsum", q, n, var_a=a, var_sigma=sigma, atoms=atoms,
                    blocks=(qa, qd), exact_from=math.ceil(count * rank / qa),
                    label=f"dsum q={q} n={n} atoms={count}")
    raise ValueError(f"unknown family {st.family!r}")
