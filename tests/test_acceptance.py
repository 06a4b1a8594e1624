"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible under
``pytest -s``) and asserts at the stated tolerance.  Nothing here reuses the
library's own verification helpers for the quantities under test: expected
values are closed-form, or come from independently coded oracles.
"""

import time

import numpy as np
import pytest

from matspec import (
    HermSeq,
    MatPoly,
    central_extend,
    central_measure,
    central_quotient,
    density_at,
    fourier_coeff,
    gamma_from_covariance,
    pd_polynomials,
    phi_at,
    spec_norm,
)

from _gen import (
    atomic_coeffs,
    conjugated,
    direct_sum,
    mixed_coeffs,
    random_psd,
    random_tpd_seq,
    random_unitary,
    trig_coeffs,
)
from _oracle import pd_density_last_row, pole_limit, radial_atom_limit

TWO_PI = 2.0 * np.pi


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


def scalar_seq(*vals):
    return HermSeq([np.array([[v]], dtype=complex) for v in vals])


def grid_angles(count):
    return TWO_PI * (np.arange(count) + 0.5) / count


def max_fourier_error(sm, seq):
    worst = 0.0
    for j in range(len(seq)):
        worst = max(worst, spec_norm(fourier_coeff(sm, j) - seq.coeff(j)))
    return worst


def rotated_example():
    c1 = 0.25 * np.array([[1.0, np.sqrt(3.0)], [np.sqrt(3.0), 3.0]])
    return HermSeq([np.eye(2), c1.astype(complex)])


def test_criterion_1a_lebesgue():
    seq = scalar_seq(1.0)
    sm = central_measure(seq)
    dens = sm.density_grid(grid_angles(720))
    density_err = float(np.max(np.abs(dens - 1.0 / TWO_PI)))
    fourier_err = max(
        spec_norm(fourier_coeff(sm, j) - (1.0 if j == 0 else 0.0)) for j in (0, 1, 2)
    )
    ok = len(sm.atoms) == 0 and density_err <= 1e-10 and fourier_err <= 1e-10
    report(
        "1a C=(1)",
        ok,
        f"atoms={len(sm.atoms)}, density err={density_err:.2e}, "
        f"fourier err={fourier_err:.2e}",
    )


def test_criterion_1b_point_mass():
    seq = scalar_seq(1.0, 1.0)
    sm = central_measure(seq)
    one_atom = len(sm.atoms) == 1
    point_err = abs(sm.atoms[0].point - 1.0) if one_atom else np.inf
    weight_err = (
        float(np.max(np.abs(sm.atoms[0].weight - 1.0))) if one_atom else np.inf
    )
    angles = grid_angles(720)
    dens = sm.density_grid(angles)
    trace_integral = float(
        np.trace(dens.mean(axis=0)).real * TWO_PI
    )
    ok = (
        one_atom
        and point_err <= 1e-10
        and weight_err <= 1e-10
        and abs(trace_integral) <= 1e-8
    )
    report(
        "1b C=(1,1)",
        ok,
        f"atoms={len(sm.atoms)}, weight err={weight_err:.2e}, "
        f"trace integral={trace_integral:.2e}",
    )


def test_criterion_1c_degenerate_block():
    seq = HermSeq([np.eye(2), np.diag([0.0, 1.0]).astype(complex)])
    sm = central_measure(seq)
    one_atom = len(sm.atoms) == 1
    atom_err = np.inf
    if one_atom:
        atom_err = max(
            abs(sm.atoms[0].point - 1.0),
            float(np.max(np.abs(sm.atoms[0].weight - np.diag([0.0, 1.0])))),
        )
    expect = np.diag([1.0 / TWO_PI, 0.0])
    dens = sm.density_grid(grid_angles(720))
    density_err = float(np.max(np.abs(dens - expect)))
    ok = one_atom and atom_err <= 1e-9 and density_err <= 1e-9
    report(
        "1c C=(I2,diag(0,1))",
        ok,
        f"atom err={atom_err:.2e}, density err={density_err:.2e}",
    )


def test_criterion_1d_rotated():
    seq = rotated_example()
    sm = central_measure(seq)
    c1 = seq.coeff(1)
    one_atom = len(sm.atoms) == 1
    atom_err = np.inf
    if one_atom:
        atom_err = max(
            abs(sm.atoms[0].point - 1.0),
            float(np.max(np.abs(sm.atoms[0].weight - c1))),
        )
    r3 = np.sqrt(3.0)
    expect = (1.0 / (4.0 * TWO_PI)) * np.array([[3.0, -r3], [-r3, 1.0]])
    dens = sm.density_grid(grid_angles(720))
    density_err = float(np.max(np.abs(dens - expect)))
    ext = central_extend(seq, 3)
    fourier_err = max(
        spec_norm(fourier_coeff(sm, j) - ext.coeff(j)) for j in (0, 1, 2)
    )
    ok = one_atom and atom_err <= 1e-8 and density_err <= 1e-8 and fourier_err <= 1e-8
    report(
        "1d rotated",
        ok,
        f"atom err={atom_err:.2e}, density err={density_err:.2e}, "
        f"fourier err={fourier_err:.2e}",
    )


def _suite_cases(rng):
    """50 TND sequences with exactly known coefficients, cycling generators."""
    cases = []
    while len(cases) < 50:
        i = len(cases)
        q = (1, 2, 3)[i % 3]
        n = 1 + (i % 5)
        style = i % 7
        if style == 0:
            coeffs, _ = atomic_coeffs(rng, q, n + 1, n_atoms=min(n, 2))
        elif style == 1:
            coeffs = trig_coeffs(rng, q, n + 1, deg=min(n + 1, 3))
        elif style == 2:
            coeffs, _ = mixed_coeffs(rng, q, n + 1, n_atoms=1, deg=2)
        elif style == 3:
            # direct sum of an atomic part and a trig part
            qa = max(1, q - 1)
            qb = q - qa if q - qa >= 1 else 1
            a, _ = atomic_coeffs(rng, qa, n + 1, n_atoms=1)
            b = trig_coeffs(rng, qb, n + 1, deg=2)
            coeffs = direct_sum(a, b)
        elif style == 4:
            base, _ = mixed_coeffs(rng, q, n + 1, n_atoms=1, deg=1)
            coeffs = conjugated(base, random_unitary(rng, q))
        elif style == 5:
            # Dirac example: one unimodular point with a random PSD mass
            u = np.exp(1j * rng.uniform(0.0, TWO_PI))
            w = random_psd(rng, q)
            coeffs = [u ** (-j) * w for j in range(n + 1)]
        else:
            coeffs = list(random_tpd_seq(rng, q, n).coeffs)
        cases.append(HermSeq(coeffs))
    return cases


def test_criterion_2_moment_recovery():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    measures = []
    for seq in _suite_cases(rng):
        sm = central_measure(seq)
        measures.append((seq, sm))
        worst = max(worst, max_fourier_error(sm, seq))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    report(
        "2 moment recovery x50",
        ok,
        f"max fourier err={worst:.2e}, elapsed={elapsed:.1f}s",
    )
    test_criterion_2_moment_recovery.measures = measures


def _fixture_measures():
    out = []
    for seq in (
        scalar_seq(1.0),
        scalar_seq(1.0, 1.0),
        HermSeq([np.eye(2), np.diag([0.0, 1.0]).astype(complex)]),
        rotated_example(),
    ):
        out.append((seq, central_measure(seq)))
    return out


def test_criterion_3_oracle_cross_checks():
    rng = np.random.default_rng(3111)
    # compressed-shift atoms against the radial-limit oracle
    worst_atom = 0.0
    checked = 0
    pool = _fixture_measures()
    for _ in range(6):
        q = int(rng.integers(1, 3))
        coeffs, _ = atomic_coeffs(rng, q, 4, n_atoms=2)
        seq = HermSeq(coeffs)
        pool.append((seq, central_measure(seq)))
    for seq, sm in pool:
        # a measure's quotient, if any, is that of its deflated data; the
        # oracle reads the full central quotient of the same data
        cq = central_quotient(gamma_from_covariance(seq))
        for atom in sm.atoms:
            radial = radial_atom_limit(cq, atom.point)
            worst_atom = max(worst_atom, float(spec_norm(atom.weight - radial)))
            checked += 1
    # A-form vs B-form oracle vs quotient density on randomized TPD inputs
    worst_density = 0.0
    for k in range(20):
        q = (1, 2, 3)[k % 3]
        seq = random_tpd_seq(rng, q, 1 + k % 4)
        pa = pd_polynomials(seq)[0]
        sm = central_measure(seq)
        a0 = pa(0.0 + 0.0j)
        for ang in grid_angles(24):
            z = np.exp(1j * ang)
            ai = np.linalg.inv(pa(z))
            fa = (ai.conj().T @ a0 @ ai) / TWO_PI
            fb = pd_density_last_row(seq, z)
            fl = density_at(sm, z)
            gap = max(
                float(spec_norm(fa - fb)),
                float(spec_norm(fa - fl)),
                float(spec_norm(fb - fl)),
            )
            worst_density = max(worst_density, gap)
    ok = worst_atom <= 1e-6 and worst_density <= 1e-8
    report(
        "3 oracle cross-checks",
        ok,
        f"atom gap={worst_atom:.2e} over {checked} atoms, "
        f"density gap={worst_density:.2e}",
    )


def test_criterion_4_structural_invariants():
    rng = np.random.default_rng(4222)
    psd_floor = 0.0
    count_ok = True
    for k in range(12):
        q = (1, 2, 3)[k % 3]
        n = 1 + k % 4
        if k % 2 == 0:
            coeffs, _ = atomic_coeffs(rng, q, n + 1, n_atoms=min(n, 2))
        else:
            coeffs, _ = mixed_coeffs(rng, q, n + 1, n_atoms=1, deg=2)
        seq = HermSeq(coeffs)
        sm = central_measure(seq)
        count_ok = count_ok and len(sm.atoms) <= n * q
        scale = 1.0 + spec_norm(seq.coeff(0))
        for atom in sm.atoms:
            low = float(np.linalg.eigvalsh(atom.weight).min())
            psd_floor = min(psd_floor, low / scale)
        dens = sm.density_grid(grid_angles(180))
        for d in dens:
            h = (d + d.conj().T) / 2
            psd_floor = min(psd_floor, float(np.linalg.eigvalsh(h).min()) / scale)
    # rank-drop inputs: purely atomic data whose rank has plateaued
    worst_mass = 0.0
    for k in range(6):
        q = 1 + k % 2
        n_atoms = 1 + k % 3
        coeffs, _ = atomic_coeffs(rng, q, n_atoms + 2, n_atoms=n_atoms)
        seq = HermSeq(coeffs)
        sm = central_measure(seq)
        total = sum(a.weight for a in sm.atoms) if sm.atoms else np.zeros((q, q))
        worst_mass = max(worst_mass, float(spec_norm(total - seq.coeff(0))))
    ok = count_ok and psd_floor >= -1e-9 and worst_mass <= 1e-7
    report(
        "4 structural invariants",
        ok,
        f"count bound={'ok' if count_ok else 'violated'}, "
        f"psd floor={psd_floor:.2e}, mass defect={worst_mass:.2e}",
    )


def _radial_limit_oracle(g, h, w, ell):
    """Numeric limit of (z-w)^ell g(z)/h(z), independent of any derivative
    formula: shrinking radial steps and three Richardson sweeps."""
    vals = []
    for k in range(3, 11):
        z = w * (1.0 - 2.0 ** (-k))
        vals.append(
            (z - w) ** ell * g(z) / np.polynomial.polynomial.polyval(z, h)
        )
    for factor in (2.0, 4.0, 8.0):
        vals = [
            (factor * vals[i + 1] - vals[i]) / (factor - 1.0)
            for i in range(len(vals) - 1)
        ]
    return vals[-1]


def test_criterion_5_pole_limit_suite():
    rng = np.random.default_rng(5333)
    worst = 0.0
    cases = 0
    double_zero_seen = set()
    while cases < 20:
        m = 2 if cases % 4 == 0 else 1
        if m == 2:
            ell = 1 + (cases // 4) % 2
        else:
            ell = cases % 2
        w = np.exp(1j * rng.uniform(0.0, TWO_PI))
        spectators = [rng.uniform(1.5, 3.0) * np.exp(1j * rng.uniform(0.0, TWO_PI))]
        if cases % 3 == 0:
            spectators.append(rng.uniform(0.1, 0.5))
        h = np.polynomial.polynomial.polyfromroots([w] * m + spectators)
        r = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        g = MatPoly(r)
        for _ in range(m - ell):
            # multiply in (z - w) so the requested limit stays finite
            shifted = np.concatenate([np.zeros((1, 2, 2), complex), g.coeffs])
            shifted[:-1] -= w * g.coeffs
            g = MatPoly(shifted)
        got = pole_limit(g, h, w, ell=ell)
        oracle = _radial_limit_oracle(g, h, w, ell)
        worst = max(worst, float(np.max(np.abs(got - oracle))))
        if m == 2:
            double_zero_seen.add(ell)
        cases += 1
    ok = worst <= 1e-7 and double_zero_seen == {1, 2}
    report(
        "5 pole-limit suite",
        ok,
        f"max gap={worst:.2e} over {cases} cases, "
        f"double-zero ells={sorted(double_zero_seen)}",
    )
