"""Property tests: `toeplitz_matrix` against the per-block definition,
covariance of the central quotient under unitary conjugation and scaling, and
of the central measure under rotation of the circle.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matspec import (
    HermSeq,
    central_measure,
    central_quotient,
    gamma_from_covariance,
    spec_norm,
    toeplitz_matrix,
)

from _gen import atomic_coeffs, conjugated, random_tpd_seq, random_unitary
from _oracle import toeplitz_blocks

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
