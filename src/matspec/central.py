"""Central extension of TND sequences and the Caratheodory-units conversion.

Extending a TND prefix by the center of its admissibility ball, repeatedly, is
the maximum-entropy ("central") continuation.  That chain of centers is one
fixed recursion: with w = T_{n-1}' Y_n solved once from C_0..C_n, every later
coefficient is C_k = sum_{m=1..n} C_{k-m} w_m, so extending to L coefficients
costs O((nq)^3 + L n q^3) before the result is scanned.  A sequence already
equal to its own center continuation from some index onward has a central
order; the pure zero tail is order 0.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .linalg import DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL, re_mat, spec_norm
from .toeplitz import (
    HermSeq,
    MatrixSeq,
    _continue,
    _predict,
    _predictor,
    _require_tnd,
)

# Tolerance for coefficient-vs-center equality tests, relative to 1 + ||C_0||.
CENTRAL_TOL = 1e-8


class GammaSeq(MatrixSeq):
    """Taylor-coefficient sequence Gamma_0..Gamma_n of a Caratheodory function.

    Membership in the Caratheodory class is checkable (`caratheodory_check`)
    but deliberately not enforced on construction.
    """


class _NotCentral:
    __slots__ = ()

    def __repr__(self) -> str:
        return "NOT_CENTRAL"


#: Sentinel returned by `central_order` when the sequence is not central.
NOT_CENTRAL = _NotCentral()


def gamma_from_covariance(seq: HermSeq) -> GammaSeq:
    """Gamma_0 = C_0, Gamma_j = 2 C_j for j >= 1."""
    return GammaSeq([seq.coeffs[0]] + [2.0 * c for c in seq.coeffs[1:]])


def covariance_from_gamma(g: GammaSeq) -> HermSeq:
    """C_0 = re Gamma_0, C_j = Gamma_j / 2; inverse of `gamma_from_covariance`
    whenever Gamma_0 is Hermitian."""
    return HermSeq([re_mat(g.coeffs[0])] + [0.5 * c for c in g.coeffs[1:]])


def central_extend(
    seq: HermSeq,
    target_len: int,
    psd_tol: float = DEFAULT_PSD_TOL,
    rank_rtol: float = DEFAULT_RANK_RTOL,
) -> HermSeq:
    """Continue C_0..C_n by ball centers until ``target_len`` coefficients.

    The chain of centers is the recursion C_k = sum_{m=1..n} C_{k-m} w_m with
    w = T_{n-1}' Y_n from one pseudoinverse, at cost O((nq)^3 + L n q^3) for
    L = ``target_len`` before the result scan.  The result is again TND, and
    is checked to be: the input and the result are each scanned once.
    Continuing a continuation agrees with continuing the original in one
    step.  A `GammaSeq` argument is converted to its covariance sequence,
    continued there, and converted back.
    """
    if target_len < len(seq):
        raise InvalidInputError(
            f"target length {target_len} shorter than the stored {len(seq)}"
        )
    if isinstance(seq, GammaSeq):
        return gamma_from_covariance(
            central_extend(covariance_from_gamma(seq), target_len, psd_tol, rank_rtol)
        )
    _require_tnd(seq, psd_tol)
    return _continue(seq, _predictor(seq, len(seq) - 1, rank_rtol), target_len, psd_tol)


def central_order(seq: HermSeq):
    """Smallest k such that every stored C_j with j > k is its ball center.

    Returns 0 when all of C_1..C_n vanish (the zero-tail convention), an
    integer k >= 1 when C_k differs from its center but all later stored
    coefficients match theirs, and NOT_CENTRAL when the final stored
    coefficient already differs from its center.  Length-1 sequences are
    central of order 0.

    Only the proper prefixes C_0..C_{j-1} feeding each ball need to be TND;
    a final coefficient that leaves the admissibility cone entirely is simply
    NOT_CENTRAL, while an interior breach is a model error.  Coefficients
    count as equal within CENTRAL_TOL * (1 + ||C_0||).
    """
    n = len(seq) - 1
    _require_tnd(seq.prefix(max(n, 1)), DEFAULT_PSD_TOL)
    if n == 0:
        return 0
    tol = CENTRAL_TOL * (1.0 + spec_norm(seq.coeffs[0]))
    c = np.asarray(seq.coeffs)
    centers = np.array(
        [_predict(c[:j], _predictor(seq, j - 1, DEFAULT_RANK_RTOL))
         for j in range(1, n + 1)]
    )
    gap = np.linalg.norm(c[1:] - centers, 2, axis=(1, 2))
    mismatched = np.nonzero(gap > tol)[0] + 1
    if mismatched.size and mismatched[-1] == n:
        return NOT_CENTRAL
    if not mismatched.size:
        # Center chain from index 1 forces a zero tail.
        if np.all(np.linalg.norm(c[1:], 2, axis=(1, 2)) <= tol):
            return 0
        return 1
    return int(mismatched[-1])
