"""Property tests: `toeplitz_matrix` against the per-block definition, the
one-eigvalsh prefix scan against the per-prefix definition, covariance of the
central quotient under unitary conjugation and scaling, and of the central
measure under rotation of the circle and under direct sums of rank-frozen
atomic data; byte-identical round trips between covariance and gamma
coefficients and through sequence and measure documents.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matspec import (
    HermSeq,
    central_measure,
    central_quotient,
    classify,
    covariance_from_gamma,
    doc_to_measure,
    doc_to_sequence,
    dumps,
    first_violation,
    gamma_from_covariance,
    loads,
    measure_to_doc,
    sequence_to_doc,
    spec_norm,
    toeplitz_matrix,
    verify_recovery,
)
from matspec.linalg import DEFAULT_PSD_TOL, re_mat
from matspec.toeplitz import _scan

from _gen import (
    atomic_coeffs,
    conjugated,
    direct_sum,
    mixed_coeffs,
    random_tpd_seq,
    random_unitary,
    separated_angles,
)
from _oracle import prefix_scan, toeplitz_blocks

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


@st.composite
def coefficient_stacks(draw):
    q = draw(st.integers(1, 3))
    n = draw(st.integers(0, 6))
    entries = st.complex_numbers(allow_nan=False, allow_infinity=False)
    return draw(arrays(complex, (n + 1, q, q), elements=entries))


@DETERMINISTIC
@given(coefficient_stacks())
def test_toeplitz_matrix_is_the_block_definition(coeffs):
    seq = HermSeq(coeffs)
    for n in range(len(seq)):
        assert np.array_equal(toeplitz_matrix(seq, n), toeplitz_blocks(seq, n))


@st.composite
def scan_inputs(draw):
    """(kind, coefficients): a TPD walk; rank-deficient atomic data; a TPD
    walk with an interior or the last coefficient C_j inflated to
    ||C_j|| = 3 (1 + ||C_0||), which makes blocks 0 and j of T_j indefinite;
    or a TPD walk with a non-Hermitian C_0."""
    kind = draw(st.sampled_from(["tpd", "atomic", "interior", "last", "non-hermitian"]))
    q = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "atomic":
        return kind, atomic_coeffs(rng, q, n + 1, draw(st.integers(1, n)))[0]
    coeffs = list(random_tpd_seq(rng, q, n).coeffs)
    scale = 1.0 + spec_norm(coeffs[0])
    if kind in ("interior", "last"):
        j = n if kind == "last" else draw(st.integers(1, n - 1))
        coeffs[j] = coeffs[j] * (3.0 * scale / spec_norm(coeffs[j]))
    elif kind == "non-hermitian":
        coeffs[0] = coeffs[0].copy()
        coeffs[0][0, -1] += 1j * scale
    return kind, coeffs


# C_0 = 1, C_1 = 1 + 1e-9: lambda_min(T_1) = -1e-9 lies in the band
# [-tol (1 + ||C_0||), 0) that the one eigvalsh of T_n passes on its own
BAND = [np.array([[1.0]], dtype=complex), np.array([[1.0 + 1e-9]], dtype=complex)]
# C_j = 1 but C_1 = 1 + 4e-9, n = 7: T_1 fails, and lambda_min(T_7) = -7.5e-9
# lies below that band but above -tol (1 + ||T_7||) = -9e-9
BELOW = [BAND[0], BAND[0] + 4e-9] + [BAND[0]] * 6


@DETERMINISTIC
@given(scan_inputs())
@example(("band", BAND))
@example(("below", BELOW))
def test_scan_matches_the_per_prefix_oracle(case):
    kind, coeffs = case
    seq = HermSeq(coeffs)
    t = toeplitz_matrix(seq, len(seq) - 1)
    bad, margin = prefix_scan(seq)
    assert (bad is None) == (kind in ("tpd", "atomic", "band"))
    assert first_violation(seq) == bad
    if bad is not None:
        assert classify(seq).value == "NOT_TND"
    else:
        assert classify(seq).value == ("TPD" if margin > DEFAULT_PSD_TOL else "TND")
    lam = np.linalg.eigvalsh(re_mat(t))[0]
    if kind == "band":
        assert -DEFAULT_PSD_TOL * (1.0 + spec_norm(coeffs[0])) <= lam < 0
    scan = _scan(t, seq.q, DEFAULT_PSD_TOL)
    assert scan.bad == bad
    if lam >= 0:
        assert scan.margin == margin


@st.composite
def quotient_inputs(draw):
    """(coefficients, rng): a TPD walk, or an atomic sequence of order n + 1
    with at most n atoms, so that T_{n+1} is rank-deficient; both from
    tests/_gen.py, with a generator for the transformation."""
    q = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return list(random_tpd_seq(rng, q, n).coeffs), rng
    return atomic_coeffs(rng, q, n + 2, draw(st.integers(1, n)))[0], rng


def quotient(coeffs):
    cq = central_quotient(gamma_from_covariance(HermSeq(coeffs)))
    return cq.num.coeffs, cq.den.coeffs


def gap(a, b):
    return float(np.max(np.linalg.norm(a - b, 2, axis=(1, 2))))


@DETERMINISTIC
@given(quotient_inputs())
def test_quotient_is_unitarily_covariant(case):
    coeffs, rng = case
    u = random_unitary(rng, coeffs[0].shape[0])
    num, den = quotient(coeffs)
    num_u, den_u = quotient(conjugated(coeffs, u))
    tol = 1e-10 * (1.0 + spec_norm(coeffs[0]))
    assert gap(num_u, u.conj().T @ num @ u) <= tol
    assert gap(den_u, u.conj().T @ den @ u) <= tol


@DETERMINISTIC
@given(quotient_inputs(), st.integers(-8, 8))
def test_quotient_scales_num_and_keeps_den(case, k):
    coeffs, _ = case
    s = 10.0**k
    num, den = quotient(coeffs)
    num_s, den_s = quotient([s * c for c in coeffs])
    tol = 1e-10 * (1.0 + spec_norm(coeffs[0]))
    assert gap(num_s / s, num) <= tol
    assert gap(den_s, den) <= tol


@DETERMINISTIC
@given(quotient_inputs(), st.floats(-np.pi, np.pi))
def test_measure_rotates_with_the_circle(case, theta):
    # C_j e^{-ij theta} are the coefficients of the measure moved by e^{i theta}
    coeffs, _ = case
    turn = np.exp(1j * theta)
    sm = central_measure(HermSeq(coeffs))
    sm_r = central_measure(HermSeq([c * turn ** -j for j, c in enumerate(coeffs)]))
    tol = 1e-10 * (1.0 + spec_norm(coeffs[0]))
    assert len(sm_r.atoms) == len(sm.atoms)
    points_r = np.array([a.point for a in sm_r.atoms])
    for atom in sm.atoms:
        k = int(np.argmin(np.abs(points_r - atom.point * turn)))
        assert abs(points_r[k] - atom.point * turn) <= tol
        assert spec_norm(sm_r.atoms[k].weight - atom.weight) <= tol
    # the density at distance d from an atom carries about
    # 3e-16 (1 + ||C_0||) / d^2 of roundoff; compare it where d >= 1e-2
    angles = 2.0 * np.pi * (np.arange(16) + 0.5) / 16
    if sm.atoms:
        points = np.array([a.point for a in sm.atoms])
        dist = np.abs(np.exp(1j * angles)[:, None] - points[None, :]).min(axis=1)
        angles = angles[dist >= 1e-2]
    assert gap(sm_r.density_grid(angles + theta), sm.density_grid(angles)) <= tol


def frozen_direct_sum(seed, q_c, q_d, n_c, n_d, shared):
    """(C (+) D, atoms of C, atoms of D): rank-frozen atomic blocks from
    tests/_gen.atomic_coeffs, with n_c and n_d atoms of which ``shared``
    sit at the same points."""
    rng = np.random.default_rng(seed)
    points = np.exp(1j * separated_angles(rng, n_c + n_d - shared))
    # one coefficient more than either block has atoms: both stay frozen
    count = max(n_c, n_d) + 1
    c, atoms_c = atomic_coeffs(rng, q_c, count, n_c, points=points[:n_c])
    d, atoms_d = atomic_coeffs(rng, q_d, count, n_d, points=points[n_c - shared :])
    return direct_sum(c, d), atoms_c, atoms_d


@st.composite
def direct_sum_inputs(draw):
    n_c, n_d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return frozen_direct_sum(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 2)),
        n_c,
        n_d,
        draw(st.integers(0, min(n_c, n_d))),
    )


@DETERMINISTIC
@given(direct_sum_inputs())
# one atom shared by both blocks with a rank-4 weight: np.roots scattered
# det den's 4-fold zero beyond the cluster radius and lost the atom
@example(frozen_direct_sum(7, 3, 1, 1, 1, 1))
def test_direct_sum_measure_is_block_diagonal(case):
    # the measure of C (+) D is the union of the atoms with block-diagonal
    # weights; a point both blocks share carries both blocks
    coeffs, atoms_c, atoms_d = case
    q_c, q = len(atoms_c[0][1]), len(coeffs[0])
    want = {}
    for (u, w), lo, hi in [(a, 0, q_c) for a in atoms_c] + [(a, q_c, q) for a in atoms_d]:
        want.setdefault(complex(u), np.zeros((q, q), dtype=complex))[lo:hi, lo:hi] = w
    seq = HermSeq(coeffs)
    sm = central_measure(seq)
    assert sm.quotient is None
    tol = 1e-8 * (1.0 + spec_norm(coeffs[0]))
    assert len(sm.atoms) == len(want)
    points = sm.atom_points()
    for u, w in want.items():
        k = int(np.argmin(np.abs(points - u)))
        assert abs(points[k] - u) <= tol
        assert spec_norm(sm.atoms[k].weight - w) <= tol
    assert verify_recovery(sm, seq).passed


@st.composite
def gen_sequences(draw):
    """A TPD walk, an atomic sequence with one coefficient more than atoms,
    or atoms plus a trigonometric density, all from tests/_gen.py."""
    kind = draw(st.sampled_from(["tpd", "atomic", "mixed"]))
    q = draw(st.integers(1, 3))
    n_atoms = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "tpd":
        return HermSeq(random_tpd_seq(rng, q, n_atoms).coeffs)
    if kind == "atomic":
        return HermSeq(atomic_coeffs(rng, q, n_atoms + 1, n_atoms)[0])
    return HermSeq(mixed_coeffs(rng, q, n_atoms + 2, n_atoms)[0])


def same_bytes(a, b):
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


@DETERMINISTIC
@given(gen_sequences())
def test_covariance_gamma_round_trip_is_exact(seq):
    # exact for Hermitian C_0, which every generator returns bit for bit
    assert np.array_equal(seq.coeffs[0], seq.coeffs[0].conj().T)
    g = gamma_from_covariance(seq)
    assert same_bytes(covariance_from_gamma(g).coeffs, seq.coeffs)
    assert same_bytes(gamma_from_covariance(covariance_from_gamma(g)).coeffs, g.coeffs)


@DETERMINISTIC
@given(gen_sequences(), st.sampled_from(["covariance", "gamma"]))
def test_sequence_document_redumps_byte_identical(seq, kind):
    if kind == "gamma":
        seq = gamma_from_covariance(seq)
    text = dumps(sequence_to_doc(seq, kind, {"source": "property"}))
    back, metadata = doc_to_sequence(loads(text))
    assert same_bytes(back.coeffs, seq.coeffs)
    assert dumps(sequence_to_doc(back, kind, metadata)) == text


@DETERMINISTIC
@given(gen_sequences())
def test_measure_document_redumps_byte_identical(seq):
    text = dumps(measure_to_doc(central_measure(seq), density_samples=8))
    assert dumps(measure_to_doc(doc_to_measure(loads(text)), density_samples=8)) == text
