"""Property tests: `toeplitz_matrix` against the per-block definition, and
covariance of the central quotient under unitary conjugation and scaling.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matspec import (
    HermSeq,
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
