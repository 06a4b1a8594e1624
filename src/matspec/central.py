"""Central extension of TND sequences and the Caratheodory-units conversion.

Extending a TND prefix by the center of its admissibility ball, repeatedly, is
the maximum-entropy ("central") continuation.  That chain of centers is one
fixed recursion: with w = T_{n-1}' Y_n solved once from C_0..C_n, every later
coefficient is C_k = sum_{m=1..n} C_{k-m} w_m, so extending to L coefficients
costs O((nq)^3 + L n q^3) before the result is checked, by one Cholesky of
re T_{L-1}.  T_n is built once per call and read by one entry pass
(`toeplitz._enter`), whose scan gives ||C_0|| and rank T_n; that rank
selects w's route, one LU solve of T_{n-1}, O((nq)^3 / 3), at full rank
and one SVD otherwise.  `central_order` reads every prefix's predictor off
the leading blocks of the same re T_n.  A sequence already equal to its
own center continuation from some index onward has a central order; the
pure zero tail is order 0.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .linalg import DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL, _spec_norms, re_mat
from .toeplitz import (
    HermSeq,
    MatrixSeq,
    _continue,
    _enter,
    _predict,
    _predictor,
    toeplitz_matrix,
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
    w = T_{n-1}' Y_n, at cost O((nq)^3 + L n q^3) for L = ``target_len``:
    one LU solve of T_{n-1}, O((nq)^3 / 3), when the input's scan finds T_n
    of full rank at the rank_rtol cutoff, else one SVD pseudoinverse, both
    of re T_n.  The input is scanned once (`toeplitz._enter`), by one
    eigvalsh of re T_n (per-prefix only below -tol (1 + ||C_0||)), which
    also gives its rank and ||C_0||.  The result is again TND,
    and is checked to be by one Cholesky of re T_{L-1} + tol (1 + ||C_0||) I,
    O((Lq)^3 / 3); eigvalsh runs on the result only when that Cholesky
    fails, to name the first bad T_k (`toeplitz._continue`).  The whole call
    costs O((Lq)^3 / 3 + (nq)^3).
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
    entry = _enter(toeplitz_matrix(seq, len(seq) - 1), seq.q, psd_tol, rank_rtol)
    return _continue(seq, entry.w, target_len, psd_tol, entry.c0_norm)


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
    count as equal within CENTRAL_TOL * (1 + ||C_0||).  Each ball centre
    takes its own predictor: one LU solve per prefix when the scan finds
    T_{n-1} of full rank, O(n^4 q^3 / 12) in all, else one SVD per prefix.
    """
    n, q = len(seq) - 1, seq.q
    entry = _enter(toeplitz_matrix(seq, max(n - 1, 0)), q, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
    if n == 0:
        return 0
    # every prefix's T_{j-1} is a leading block of T_{n-1}, whose predictor
    # gives the last centre
    t, tol = entry.t, CENTRAL_TOL * (1.0 + entry.c0_norm)
    ws = [_predictor(t[: j * q, : j * q], q, DEFAULT_RANK_RTOL, entry.full_rank)[0]
          for j in range(1, n)]
    c = np.asarray(seq.coeffs)
    centers = np.array([_predict(c[:j], w) for j, w in enumerate(ws + [entry.w], 1)])
    gap = _spec_norms(c[1:] - centers)
    mismatched = np.nonzero(gap > tol)[0] + 1
    if mismatched.size and mismatched[-1] == n:
        return NOT_CENTRAL
    if not mismatched.size:
        # Center chain from index 1 forces a zero tail.
        if np.all(_spec_norms(c[1:]) <= tol):
            return 0
        return 1
    return int(mismatched[-1])
