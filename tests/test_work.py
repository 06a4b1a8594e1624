"""Work counts of the prefix scan, the central predictor, the atoms and the
recovery quadrature: each public entry point decides nonnegativity of every
prefix Toeplitz matrix with one factorization of the largest and no SVD
norm of a prefix matrix, so the check's work grows as n^3.  The entry pass
of `central_measure`, `central_extend`, `ar_spectrum`, `central_order` and
`central_quotient` clears full-rank input by one Cholesky of re T_n - s I,
with no eigvalsh larger than q x q and no Cholesky of T_{n-1} for the
Stein certificate, and declines singular input after one Cholesky, which
then takes one eigvalsh below size 40 and from there a second Cholesky and
rank T_n from the predictor's SVD and the q x q Schur complement, no
eigvalsh larger than q x q; `classify`, `first_violation`, `ball_params`,
`pd_polynomials` and `matspec check` take one eigvalsh (the per-prefix
loop runs only on failing input).  The central extension made by
`central_extend` and `ar_spectrum`, TND by construction, is checked by one
Cholesky of its size and no eigvalsh; each entry point solves for the
central predictor with one LU solve of T_{n-1} when T_n has full rank and
with one pseudoinverse when it is singular (`ball_params` always with
the pseudoinverse's one SVD), full-rank quotients are cleared by their
Stein certificate and no zero of det den is computed, a deflated quotient's
zeros take one eig of den's block companion, the recovery, `fourier_coeff`
and `herglotz_transform` sample no density, take no FFT of one and call `rational_values` only for the
Herglotz transform's two points, the near-circle clusters of the residue
oracle (tests/_oracle.py) take one stacked Horner pass of den, den' and
num however many clusters there are and each Newton pass of its polish one
of den and den', the Horner step keeps the bits of ``out * z + c_k``, every
spectral norm is one np.linalg.svdvals, ||C_0|| is read once per call, by
the entry pass or the scan, and
the recovery errors of all orders and each comparison of the
autoregressive check and `central_order` take one stacked svdvals,
`central_quotient` reads Gamma_0's Hermiticity off the entry and alone runs
the disk verdict at the open-disk margin, the central numerator reads re
T_n's first block row with no np.triu_indices, and the oracle's scalar det
den takes one FFT and one stacked det.
`central_measure` builds T_n once and takes one Cholesky of it for every
kind of input, and singular input one eigvalsh of it below size 40, a
second Cholesky and no eigvalsh of it from there; full-rank input
takes no prefix-sized SVD or inverse, one LU solve
of T_{n-1} for the predictor and no solve of T_n, and makes no eig call;
singular input takes one matrix SVD and reads its atoms off the r x r
compressed shift with no eig of its size: rank-frozen input takes one eigh
of size r and one stacked eig per block size, deflated input one eigh of
size r and one of the unitary part's size, data whose shift has no
unitary part one eigh of size r, and data whose shift fails the
certificate one eig of size r, and no input a stacked eigh of its atom
weights; deflated input adds one build of the deflated data and one eigh
of size r for its range, and no second SVD, singular input with no atom
neither, and rank-frozen input never forms det
den, its zeros, a quotient value or a Taylor coefficient.
re T_n is T_n with the real part of its diagonal blocks taken, so a
full-rank `central_measure` with its recovery, and `central_extend`, hand
`re_mat` q x q blocks only, never a Toeplitz-sized matrix; the central
extension (`toeplitz._continue`), the Taylor recurrence and the central
quotient work on (L, q, q) block stacks and call no np.hstack."""

import importlib
import inspect
import json
import pkgutil
import warnings

import numpy as np
import pytest

import _oracle
import matspec
import matspec.caratheodory as caratheodory
import matspec.matpoly as matpoly
import matspec.measure as measure
import matspec.toeplitz as toeplitz
from matspec import (
    ArOrderMismatchWarning,
    HermSeq,
    MatPoly,
    ar_spectrum,
    ball_params,
    central_extend,
    central_measure,
    central_order,
    central_quotient,
    classify,
    dumps,
    first_violation,
    fourier_coeff,
    gamma_from_covariance,
    herglotz_transform,
    pd_polynomials,
    sequence_to_doc,
    toeplitz_matrix,
    verify_recovery,
)
from matspec.cli import main
from matspec.errors import ModelError
from matspec.linalg import DEFAULT_RANK_RTOL
from matspec.matpoly import MatPolyStack
from matspec.toeplitz import _predictor

from _gen import (
    atom_free_singular_coeffs,
    atomic_coeffs,
    direct_sum,
    mixed_coeffs,
    random_tpd_seq,
    var1_coeffs,
)
from _oracle import compute_atoms, horner, numerical_rank

Q, N = 2, 16


@pytest.fixture
def seq():
    return random_tpd_seq(np.random.default_rng(5), Q, N)


@pytest.fixture
def calls(monkeypatch):
    """Shapes of the matrices handed to np.linalg.eigvalsh / svd / norm /
    svdvals / solve / inv / eig / eigh / cholesky."""
    names = ("eigvalsh", "svd", "norm", "svdvals", "solve", "inv", "eig", "eigh", "cholesky")
    seen = {name: [] for name in names}
    for name, shapes in seen.items():
        orig = getattr(np.linalg, name)

        def counted(a, *args, _orig=orig, _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return seen


def patch_everywhere(monkeypatch, name, make):
    """Replace ``name`` in every matspec module that has it by
    make(original)."""
    for m in pkgutil.iter_modules(matspec.__path__):
        module = importlib.import_module(f"matspec.{m.name}")
        if hasattr(module, name):
            monkeypatch.setattr(module, name, make(getattr(module, name)))


@pytest.fixture
def built(monkeypatch):
    """Orders n of the T_n that any matspec module builds."""
    orders = []

    def counting(build):
        def counted(s, n):
            orders.append(n)
            return build(s, n)
        return counted

    patch_everywhere(monkeypatch, "toeplitz_matrix", counting)
    return orders


def prefix_sized(shapes):
    # anything larger than a single q x q coefficient is a prefix matrix
    return [s for s in shapes if len(s) == 2 and max(s) > Q]


def stein_norms(n):
    """Frobenius norms the Stein certificate of an order-n quotient takes:
    of the stacked predictor blocks, of T_{n-1} and of the Yule-Walker
    residual."""
    return [(n, Q, Q), (n * Q, n * Q), ((n - 1) * Q, Q)]


def test_central_measure_scans_once(seq, calls):
    # full-rank T_n: one Cholesky of re T_n - s I, the entry's certificate,
    # which also proves re T_{n-1} >= 0 for the Stein certificate, so no
    # Cholesky of T_{n-1} and no eigvalsh but the q x q one of its leading
    # block; no spectral norm of a prefix matrix, only the Frobenius norms
    # of the shift and of the Stein certificate
    central_measure(seq)
    assert calls["cholesky"] == [((N + 1) * Q,) * 2]
    assert calls["eigvalsh"] == [(Q, Q)]
    assert prefix_sized(calls["svdvals"]) == []
    assert calls["norm"] == [((N + 1) * Q,) * 2] + stein_norms(N)


def test_central_extend_scans_input_and_result_once(seq, calls):
    # the full-rank input takes one Cholesky of re T_n - s I and the
    # Frobenius norm of re T_n for its shift; the result, TND by
    # construction, one Cholesky of T_{L-1}; no eigvalsh at all
    ext = central_extend(seq, 2 * (N + 1))
    assert len(ext) == 2 * (N + 1)
    assert calls["eigvalsh"] == []
    assert calls["cholesky"] == [((N + 1) * Q,) * 2, (2 * (N + 1) * Q,) * 2]
    assert calls["norm"] == [((N + 1) * Q,) * 2]
    assert prefix_sized(calls["svdvals"]) == []


def scan_work(shapes):
    return sum(s[0] ** 3 for s in prefix_sized(shapes))


def test_scan_work_grows_as_n_cubed(calls):
    # sum of dim^3 over the certificate's Cholesky calls on full-rank input
    # as n doubles: one Cholesky of T_n gives about 2^3, one eigvalsh per
    # prefix gave 2^3.75 here; no prefix-sized eigvalsh runs
    work = {}
    for n in (16, 32):
        tpd = random_tpd_seq(np.random.default_rng(5), Q, n)
        calls["cholesky"].clear()
        calls["eigvalsh"].clear()
        central_measure(tpd)
        work[n] = scan_work(calls["cholesky"])
        assert prefix_sized(calls["eigvalsh"]) == []
    assert np.log2(work[32] / work[16]) <= 3.1


def test_each_entry_point_scans_with_one_eigvalsh(seq, calls):
    # a passing input never reaches the per-prefix loop; central_measure,
    # central_extend, ar_spectrum, central_order and matspec check have
    # their own tests.  The scans that need the margin or the first bad
    # index take one eigvalsh of T_n and no Cholesky; central_quotient's
    # entry clears full-rank T_n by one Cholesky instead, and its Stein
    # certificate adds one q x q eigvalsh and no Cholesky of T_{n-1}
    entry_points = {
        "central_quotient": lambda: central_quotient(gamma_from_covariance(seq)),
        "ball_params": lambda: ball_params(seq, N),
        "classify": lambda: classify(seq),
        "first_violation": lambda: first_violation(seq),
        "pd_polynomials": lambda: pd_polynomials(seq),
    }
    t_n = ((N + 1) * Q,) * 2
    for name, call in entry_points.items():
        calls["eigvalsh"].clear()
        calls["cholesky"].clear()
        call()
        if name == "central_quotient":
            assert (calls["eigvalsh"], calls["cholesky"]) == ([(Q, Q)], [t_n]), name
        else:
            assert (calls["eigvalsh"], calls["cholesky"]) == ([t_n], []), name


def test_central_extend_solves_predictor_once(seq, calls):
    # full-rank T_n: one LU solve of T_{n-1}, no SVD and no inverse
    central_extend(seq, 2 * (N + 1))
    assert calls["solve"] == [(N * Q, N * Q)]
    assert prefix_sized(calls["svd"]) == []
    assert prefix_sized(calls["inv"]) == []


def test_predictor_takes_one_svd(seq, calls):
    # singular route: the refinement steps reuse the one pseudoinverse
    _predictor(toeplitz_matrix(seq, N), Q, DEFAULT_RANK_RTOL, False)
    assert calls["svd"] == [(N * Q, N * Q)]
    assert calls["solve"] == []


def test_ball_params_takes_one_svd(seq, calls):
    # the centre, both semi-radii and the refinement steps read the
    # predictor's one SVD of T_{n-1}, whatever the rank
    ball_params(seq, N)
    assert calls["svd"] == [(N * Q, N * Q)]
    assert calls["solve"] == []


def test_each_entry_point_builds_toeplitz_once(seq, built):
    # every consumer slices one T_n; central_extend and ar_spectrum also
    # build the T of the extension they scan
    calls = {
        "central_measure": lambda: central_measure(seq),
        "central_quotient": lambda: central_quotient(gamma_from_covariance(seq)),
        "central_extend": lambda: central_extend(seq, 2 * (N + 1)),
        "central_order": lambda: central_order(seq),
        "ar_spectrum": lambda: ar_spectrum(seq, 8),
        "ball_params": lambda: ball_params(seq, N),
        "pd_polynomials": lambda: pd_polynomials(seq),
    }
    counts = {}
    for name, call in calls.items():
        built.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ArOrderMismatchWarning)
            call()
        counts[name] = len(built)
    assert counts == {
        "central_measure": 1,
        "central_quotient": 1,
        "central_extend": 2,
        "central_order": 1,
        "ar_spectrum": 2,
        "ball_params": 1,
        "pd_polynomials": 1,
    }


@pytest.mark.parametrize("last", ["kept", "inflated"])
def test_check_scans_once(tmp_path, calls, capsys, last):
    # classification, first failure and the Caratheodory test share one scan
    c = list(random_tpd_seq(np.random.default_rng(7), 2, 2).coeffs)
    if last == "inflated":
        c[2] = 50.0 * c[2]
    path = tmp_path / "seq.json"
    path.write_text(dumps(sequence_to_doc(HermSeq(c), "covariance")))
    calls["eigvalsh"].clear()
    code = main(["check", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert (code, out["first_failure"]) == ((0, None) if last == "kept" else (2, 2))
    # inflated: T_2 fails the one full-matrix eigvalsh, then the per-prefix
    # loop checks T_0 and T_1 and reuses T_2's eigenvalues
    assert len(calls["eigvalsh"]) == (1 if last == "kept" else 3)


def test_verify_recovery_stacks_the_order_errors(seq, calls):
    sm = central_measure(seq)
    calls["norm"].clear()
    calls["svdvals"].clear()
    verify_recovery(sm, seq)
    # the N + 1 order errors take one stacked svdvals; the only norm of a
    # single coefficient left is ||C_0||, the scale of the relative error
    assert calls["svdvals"].count((N + 1, Q, Q)) == 1
    assert calls["svdvals"].count((Q, Q)) == 1
    assert calls["norm"].count((Q, Q)) == 0


def test_comparisons_stack_their_norms(seq, calls):
    # every spectral norm is one svdvals, of a matrix or of a stack, and
    # ||C_0|| is read once, by the scan of the entry pass, for every later
    # stage.  central_measure: ||C_0 - C_0*|| and ||C_0|| in the scan;
    # full-rank input reads no zero of det den, so den's kernels are left
    # to the recovery
    central_measure(seq)
    assert len(calls["svdvals"]) == 2
    # the prefix's 2 and the mismatch gaps; the Cholesky shift and the
    # mismatch scale read the entry's ||C_0||
    calls["svdvals"].clear()
    with pytest.warns(ArOrderMismatchWarning):
        ar_spectrum(seq, 8)
    assert len(calls["svdvals"]) == 3
    # the entry's 2 and the gaps to the ball centres
    calls["svdvals"].clear()
    central_order(seq)
    assert len(calls["svdvals"]) == 3
    # Gamma_0's Hermiticity and ||Gamma_0|| come from the entry alone
    calls["svdvals"].clear()
    central_quotient(gamma_from_covariance(seq))
    assert len(calls["svdvals"]) == 2
    # np.linalg.norm only for the shift of each entry's certificate, of
    # re T_n, re T_8, re T_{n-1} and re T_n, and in the Stein certificates
    # of the three quotients
    t = [((k + 1) * Q,) * 2 for k in (N, 8, N - 1, N)]
    assert calls["norm"] == ([t[0]] + stein_norms(N) + [t[1]] + stein_norms(8)
                             + [t[2]] + [t[3]] + stein_norms(N))


def test_ar_spectrum_scans_prefix_and_extension_once(seq, calls):
    order = 8
    with pytest.warns(ArOrderMismatchWarning):
        ar_spectrum(seq, order)
    # one Cholesky of the prefix's re T_order - s I, which also proves
    # re T_{order-1} >= 0, so the quotient's Stein certificate takes one
    # q x q eigvalsh and no Cholesky; the extension to the stored length,
    # TND by construction, takes one Cholesky and no eigvalsh
    assert calls["eigvalsh"] == [(Q, Q)]
    assert calls["cholesky"] == [((order + 1) * Q,) * 2, ((N + 1) * Q,) * 2]
    # full-rank T_order: one LU solve of T_{order-1} for the predictor and
    # none of T_order; no SVD, no inverse
    assert prefix_sized(calls["solve"]) == [(order * Q,) * 2]
    assert prefix_sized(calls["svd"]) == []
    assert prefix_sized(calls["inv"]) == []


def test_central_order_scans_once(seq, calls):
    # full-rank T_{n-1}: one Cholesky of re T_{n-1} - s I, no eigvalsh, and
    # the Frobenius norm of re T_{n-1} for the shift
    central_order(seq)
    assert calls["eigvalsh"] == []
    assert calls["cholesky"] == [(N * Q,) * 2]
    assert calls["norm"] == [(N * Q,) * 2]
    # full-rank T_{n-1}: one LU solve per ball centre, of T_0..T_{n-2}, and
    # no SVD; the entry pass solves for the last centre first
    assert calls["solve"] == [((N - 1) * Q,) * 2] + [(k * Q,) * 2 for k in range(1, N - 1)]
    assert calls["svd"] == []


@pytest.fixture
def pole_work(monkeypatch):
    """Shapes of the matrices handed to np.linalg.eigvals, which computes the
    zeros of det den as the eigenvalues of den's block companion."""
    seen = []
    eigvals = np.linalg.eigvals

    def counted(a, *args, **kwargs):
        seen.append(np.shape(a))
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return seen


def run_pipeline(seq):
    """central_measure, verify_recovery, three fourier_coeff and one
    herglotz_transform on one quotient; returns the measure."""
    sm = central_measure(seq)
    verify_recovery(sm, seq)
    for j in (0, 1, len(seq)):
        fourier_coeff(sm, j)
    herglotz_transform(sm, 0.3 + 0.2j)
    return sm


def test_verify_recovery_finds_poles_once(seq, pole_work):
    # full-rank data: the Stein certificate clears the quotient, and no
    # step of the pipeline computes a zero of det den
    sm = run_pipeline(seq)
    assert sm.quotient._certified == measure.DISK_MARGIN
    assert pole_work == []


# AR(1) with rho = 1 - 1e-4: a simple zero of det den 1e-4 outside the circle
AR1 = HermSeq([np.array([[(1.0 - 1e-4) ** j]], dtype=complex) for j in range(4)])


def test_near_boundary_finds_poles_once(pole_work):
    sm = run_pipeline(AR1)
    assert sm.quotient._certified == measure.DISK_MARGIN
    assert pole_work == []


def test_deflated_measure_finds_poles_once(pole_work):
    # deflated data: the Stein certificate cannot decide, so the measure's
    # verdict reads the zeros off one eig of den's block companion, of size
    # q deg den; the recovery, fourier_coeff and herglotz_transform reuse them
    sm = run_pipeline(DSUM)
    den = sm.quotient.den.trim()
    assert sm.atoms and sm.quotient._certified == -np.inf
    assert pole_work == [(den.q * den.degree,) * 2]


def test_semisimple_double_pole_recovers():
    # diag(AR(1), AR(1)) with equal rho: a double zero of det den 1e-4
    # outside the circle, where den has a 2-dimensional kernel
    rho = 1.0 - 1e-4
    data = HermSeq([np.diag([1.0, 2.0]).astype(complex) * rho**j for j in range(3)])
    report = verify_recovery(central_measure(data), data)
    assert report.passed and report.relative_error <= 1e-13


@pytest.fixture
def sampling_work(monkeypatch):
    """Shapes handed to np.fft.fft and np.exp, and the points handed to
    the density and to `rational_values`, wherever matspec calls them."""
    seen = {"fft": [], "exp": [], "density": [], "values": []}
    fft, exp = np.fft.fft, np.exp
    density, values = measure._density_on_circle, caratheodory.rational_values

    def counted_fft(a, *args, **kwargs):
        seen["fft"].append(np.shape(a))
        return fft(a, *args, **kwargs)

    def counted_exp(x, *args, **kwargs):
        seen["exp"].append(np.size(x))
        return exp(x, *args, **kwargs)

    def counted_density(sm, zs):
        seen["density"].append(np.size(zs))
        return density(sm, zs)

    def counted_values(cq, zs):
        seen["values"].append(np.size(zs))
        return values(cq, zs)

    monkeypatch.setattr(np.fft, "fft", counted_fft)
    monkeypatch.setattr(np, "exp", counted_exp)
    monkeypatch.setattr(measure, "_density_on_circle", counted_density)
    for module in (caratheodory, measure):
        monkeypatch.setattr(module, "rational_values", counted_values)
    return seen


# two full-rank q=2 atoms, n = 5: rank T_4 = rank T_5 = 4
FROZEN = HermSeq(atomic_coeffs(np.random.default_rng(3), 2, 6, 2)[0])
# one atom plus a trigonometric density: the rank grows with n
MIXED = HermSeq(mixed_coeffs(np.random.default_rng(4), 2, 6)[0])
# two scalar atoms (+) a VAR(1): T_6 is singular, its shift is not unitary
# and the density comes from the deflated data
DSUM = HermSeq(direct_sum(atomic_coeffs(np.random.default_rng(6), 1, 7, 2)[0],
                          var1_coeffs(np.random.default_rng(6), 1, 0.6, 7)))
INPUTS = {"subtracted-pole": AR1, "frozen": FROZEN, "mixed": MIXED, "deflated": DSUM}
# singular data with no atom: 0 (+) AR(1), and an MA(1) density of rank 1
INPUTS.update({kind: HermSeq(atom_free_singular_coeffs(kind)) for kind in ("zero+ar1", "ma-rank1")})


@pytest.mark.parametrize("case", ["tpd", "near-boundary", "deflated", "atoms"])
def test_recovery_samples_no_density(seq, sampling_work, case):
    # the closed form reads the density's orders off num den^{-1}'s Taylor
    # coefficients: verify_recovery and fourier_coeff sample nothing, and
    # herglotz_transform evaluates the quotient at z and 0 only
    data = {"tpd": seq, "near-boundary": AR1, "deflated": DSUM, "atoms": FROZEN}[case]
    sm = central_measure(data)
    for seen in sampling_work.values():
        seen.clear()
    assert verify_recovery(sm, data).passed
    fourier_coeff(sm, 3 * len(data))
    assert sampling_work == {"fft": [], "exp": [], "density": [], "values": []}
    herglotz_transform(sm, 0.3 + 0.2j)
    assert sampling_work["values"] == ([] if sm.quotient is None else [2])
    assert sampling_work["fft"] == sampling_work["exp"] == sampling_work["density"] == []


def matrices(shapes):
    return [s for s in shapes if len(s) == 2]


def test_frozen_input_reads_its_atoms_off_one_eig(pole_work, sampling_work, calls):
    # rank-frozen data: no det den, no roots, no quotient values and no
    # density samples anywhere in the pipeline.  The atoms come from one
    # eigh of size r = 4 and one stacked eig of the shift's two 2 x 2
    # blocks, one per atom of rank 2; no eig of size r
    sm = run_pipeline(FROZEN)
    assert sm.quotient is None and len(sm.atoms) == 2
    assert pole_work == []
    assert sampling_work == {"fft": [], "exp": [], "density": [], "values": []}
    assert calls["eig"] == [(2, 2, 2)]
    assert matrices(calls["eigh"]) == [(4, 4)]


@pytest.mark.parametrize(
    "kind", ["tpd", "subtracted-pole", "frozen", "mixed", "deflated", "zero+ar1", "ma-rank1"]
)
def test_central_measure_builds_scans_and_factors_once(seq, calls, built, kind):
    # one T_n.  Full-rank T_n: one Cholesky of re T_n - s I (the entry's
    # certificate, which gives rank T_n), no eigvalsh of T_n, one LU solve
    # of T_{n-1} (the predictor), none of T_n, no matrix SVD and no matrix
    # inverse.  Singular T_n: the certificate's Cholesky is declined, and
    # below _SCHUR_MIN_SIZE, as here, one eigvalsh (the scan) gives rank
    # T_n.  Singular T_n: one matrix SVD (the predictor's, which also gives
    # rank T_{n-1} and the range the shift reads) and no matrix solve;
    # deflated data adds the T_n of C' and takes the range of T'_{n-1} from
    # an eigh of size r, with no second SVD and no second scan.  Singular
    # data whose shift finds no atom has nothing to deflate: its quotient
    # reads the entry's T_n and predictor
    data = INPUTS.get(kind, seq)
    sm = central_measure(data)
    assert (sm.quotient is None) == (kind == "frozen")
    assert bool(sm.atoms) == (kind in ("frozen", "deflated"))
    times = 2 if kind == "deflated" else 1
    assert built == [len(data) - 1] * times
    # the Stein certificate: for full-rank data no Cholesky, the entry's
    # proves re T_{n-1} >= 0, and one q x q eigvalsh; a singular quotient's
    # T_{n-1} fails its own Cholesky, and its zeros take one q x q solve
    # (den_0^{-1} folded into den); rank-frozen data has no quotient
    singular = kind in ("frozen", "deflated", "zero+ar1", "ma-rank1")
    t_n = (len(data) * data.q,) * 2
    t_prev = ((len(data) - 1) * data.q,) * 2
    if singular:
        stein = [] if kind == "frozen" else [t_prev]
        assert (calls["cholesky"], calls["eigvalsh"]) == ([t_n] + stein, [t_n])
    else:
        assert (calls["cholesky"], calls["eigvalsh"]) == ([t_n], [(data.q, data.q)])
    matrices = {name: [s for s in calls[name] if len(s) == 2]
                for name in ("svd", "solve", "inv")}
    if singular:
        fold = [] if kind == "frozen" else [(data.q, data.q)]
        assert matrices == {"svd": [t_prev], "solve": fold, "inv": []}
    else:
        assert matrices == {"svd": [], "solve": [t_prev], "inv": []}


# singular inputs of size 50 >= _SCHUR_MIN_SIZE: two full-rank q = 2
# atoms, n = 24, and two scalar atoms (+) a VAR(1)
LARGE = {
    "frozen": HermSeq(atomic_coeffs(np.random.default_rng(3), 2, 25, 2)[0]),
    "deflated": HermSeq(direct_sum(atomic_coeffs(np.random.default_rng(6), 1, 25, 2)[0],
                                   var1_coeffs(np.random.default_rng(6), 1, 0.6, 25))),
}


@pytest.mark.parametrize("kind", ["frozen", "deflated"])
def test_certified_singular_entry_takes_no_eigvalsh_of_t_n(calls, built, kind):
    # the declined Cholesky, a second one of re T_n + (nu - slack) I that
    # proves it TND, and rank T_n from the predictor's one matrix SVD and
    # the q x q eigvalsh of the Schur complement: no eigvalsh larger than
    # q x q.  A deflated measure takes one SVD in all, and the range of
    # T'_{n-1} from one eigh of size r; the shift's eighs are no larger;
    # its quotient's T_{n-1} fails its own Cholesky
    data = LARGE[kind]
    n, q = len(data) - 1, data.q
    t_n, t_prev = ((n + 1) * q,) * 2, (n * q,) * 2
    assert t_n[0] >= toeplitz._SCHUR_MIN_SIZE
    r = numerical_rank(toeplitz_matrix(data, n - 1))
    for seen in (*calls.values(), built):
        seen.clear()
    sm = central_measure(data)
    assert (sm.quotient is None) == (kind == "frozen") and len(sm.atoms) == 2
    assert calls["eigvalsh"] == [(q, q)]
    assert calls["cholesky"] == [t_n, t_n] + ([] if kind == "frozen" else [t_prev])
    assert matrices(calls["svd"]) == [t_prev]
    assert max(s[0] for s in matrices(calls["eigh"])) <= r
    if kind == "deflated":
        assert matrices(calls["eigh"])[-1] == (r, r)
    assert built == [n] * (1 if kind == "frozen" else 2)


@pytest.mark.parametrize("kind", ["tpd", "subtracted-pole", "frozen", "mixed", "deflated"])
def test_only_singular_input_takes_one_eig_of_the_shift(seq, calls, kind):
    # full-rank T_n has no atoms and no atom search.  Singular T_n reads the
    # unitary part of the r x r compressed shift, r = rank T_{n-1}, off
    # Hermitian eigensolvers and takes no eig of size r: rank-frozen data
    # one eigh of size r; deflated data one eigh of W^{*m} W^m, size r, and
    # one of the unitary part, here the 2-dimensional span of DSUM's two
    # scalar atoms, then one eigh of U_r* T'_{n-1} U_r, size r, for the
    # deflated quotient.  Only the blocks' stacked eigs remain.
    data = INPUTS.get(kind, seq)
    n, q = len(data) - 1, data.q
    singular = numerical_rank(toeplitz_matrix(data, n)) < (n + 1) * q
    r = numerical_rank(toeplitz_matrix(data, n - 1))
    central_measure(data)
    assert singular == (kind in ("frozen", "deflated"))
    assert matrices(calls["eig"]) == []
    assert bool(calls["eig"]) == singular
    want = {"frozen": [(r, r)], "deflated": [(r, r), (2, 2), (r, r)]}.get(kind, [])
    assert matrices(calls["eigh"]) == want
    # the atom weights are Gram matrices: no stacked eigh finishes them
    assert calls["eigh"] == matrices(calls["eigh"])


def test_shift_without_a_unitary_certificate_takes_one_eig(calls):
    # AR(1) with C_0 = 1 and rho = 1 - 1e-9, n = 5, is rank-frozen, but only
    # one of the shift's five eigenvalues is unimodular: the Hermitian route
    # fails its certificate and one eig of size r = 5 answers.  The deflated
    # quotient's zero of det den at about 0.75 then fails the certificate, as
    # with the eig route alone.
    rho = 1.0 - 1e-9
    data = HermSeq([np.array([[rho**j]], dtype=complex) for j in range(6)])
    with pytest.raises(ModelError, match="zero of det den at .* not certified outside the closed disk"):
        central_measure(data)
    assert matrices(calls["eig"]) == [(5, 5)]


@pytest.mark.parametrize("kind", ["zero+ar1", "ma-rank1"])
def test_shift_without_a_unitary_part_stops_at_its_eigh(calls, kind):
    # singular data with no atom: W^{*m} W^m has no eigenvalue above 1/2,
    # and the empty unitary part answers at once, with one eigh of size r,
    # none of a (0, 0) matrix and no eig
    data = INPUTS[kind]
    r = numerical_rank(toeplitz_matrix(data, len(data) - 2))
    assert central_measure(data).atoms == ()
    assert calls["eigh"] == [(r, r)]
    assert (0, 0) not in calls["eigh"]
    assert calls["eig"] == []


@pytest.mark.parametrize("q, degree", [(1, 3), (2, 5), (4, 1), (3, 0)])
def test_det_poly_takes_one_fft_and_one_stacked_det(monkeypatch, q, degree):
    # p's values at the N-th roots of unity, N = 2^k > q deg p, are one FFT
    # of its coefficients and their determinants one stacked det; no Horner
    # pass.  A constant p takes one det of its coefficient and no FFT
    seen = {"fft": [], "det": []}
    fft, det = np.fft.fft, np.linalg.det

    def counted_fft(a, *args, **kwargs):
        seen["fft"].append(np.shape(a))
        return fft(a, *args, **kwargs)

    def counted_det(a):
        seen["det"].append(np.shape(a))
        return det(a)

    def no_horner(*args):
        raise AssertionError("det_poly evaluated by Horner")

    monkeypatch.setattr(np.fft, "fft", counted_fft)
    monkeypatch.setattr(np.linalg, "det", counted_det)
    monkeypatch.setattr(matpoly, "_horner", no_horner)
    rng = np.random.default_rng(10 * q + degree)
    p = MatPoly(rng.standard_normal((degree + 1, q, q)) + 1j * rng.standard_normal((degree + 1, q, q)))
    assert _oracle.det_poly(p).size == q * degree + 1
    if degree == 0:
        assert seen == {"fft": [], "det": [(q, q)]}
    else:
        size = 2 ** (q * degree).bit_length()
        assert seen == {"fft": [(degree + 1, q, q)], "det": [(size, q, q)]}


@pytest.mark.parametrize("kind", ["tpd", "subtracted-pole", "frozen", "mixed", "deflated"])
def test_only_central_quotient_runs_the_open_disk_test(seq, monkeypatch, kind):
    # one certificate judges every quotient's zeros: a measure's quotient,
    # central or deflated, at the closed-disk margin alone;
    # `central_quotient` once, at the open-disk margin
    checked = []
    check = caratheodory._disk_cause

    def counted(cq, margin):
        checked.append((cq, margin))
        return check(cq, margin)

    for module in (caratheodory, measure):
        monkeypatch.setattr(module, "_disk_cause", counted)
    data = INPUTS.get(kind, seq)
    central_measure(data)
    ar_spectrum(data, len(data) - 1)
    assert all(margin == measure.DISK_MARGIN for _, margin in checked)
    checked.clear()
    cq = central_quotient(gamma_from_covariance(data))
    assert checked == [(cq, -caratheodory.NEAR_CIRCLE)] and checked[0][0] is cq


@pytest.mark.parametrize("kind", ["tpd", "subtracted-pole", "mixed", "deflated", "zero+ar1"])
def test_numerator_reads_the_first_block_row(seq, monkeypatch, kind):
    # num takes one product per order with a prefix of re T_n's first block
    # row: no dense S_{n-1}, so no upper blocks to zero by np.triu_indices
    built = []
    build = caratheodory._central_quotient

    def recorded(*args):
        built.append(args)
        return build(*args)

    def no_triu(*args, **kwargs):
        raise AssertionError("np.triu_indices called")

    monkeypatch.setattr(np, "triu_indices", no_triu)
    for module in (caratheodory, measure):
        monkeypatch.setattr(module, "_central_quotient", recorded)
    data = INPUTS.get(kind, seq)
    central_measure(data)
    central_quotient(gamma_from_covariance(data))
    assert len(built) == 2


def test_full_rank_paths_hand_re_mat_no_toeplitz_matrix(seq, monkeypatch):
    # re T_n comes from T_n's diagonal blocks (`toeplitz._re_toeplitz`):
    # the entry pass, the extension's check and the Stein certificate hand
    # re_mat q x q blocks or a stack of them, never an N x N matrix
    shapes = []

    def counting(orig):
        def counted(a):
            shapes.append(np.shape(a))
            return orig(a)
        return counted

    patch_everywhere(monkeypatch, "re_mat", counting)
    for data in (seq, AR1):
        shapes.clear()
        sm = central_measure(data)
        assert sm.quotient is not None and not sm.atoms
        assert verify_recovery(sm, data).passed
        central_extend(data, 2 * len(data))
        assert shapes and {shape[-2:] for shape in shapes} == {(data.q, data.q)}


@pytest.mark.parametrize("kind", ["tpd", "subtracted-pole", "deflated", "zero+ar1"])
def test_stack_paths_call_no_hstack(seq, monkeypatch, kind):
    # the extension, the Taylor recurrence and the central quotient read
    # and write (L, q, q) stacks: none of them assembles a block row by
    # np.hstack, while other code may
    ran, inside, hstack = [], [], np.hstack

    def watching(orig):
        def watched(*args, **kwargs):
            ran.append(orig.__name__)
            inside.append(orig.__name__)
            try:
                return orig(*args, **kwargs)
            finally:
                inside.pop()
        return watched

    def checked(*args, **kwargs):
        assert not inside, f"np.hstack called in {inside[-1]}"
        return hstack(*args, **kwargs)

    for name in ("_continue", "taylor_coefficients", "_central_quotient"):
        patch_everywhere(monkeypatch, name, watching)
    monkeypatch.setattr(np, "hstack", checked)
    data = INPUTS.get(kind, seq)
    sm = central_measure(data)
    assert verify_recovery(sm, data).passed
    central_extend(data, 2 * len(data))
    central_quotient(gamma_from_covariance(data))
    assert set(ran) == {"_continue", "taylor_coefficients", "_central_quotient"}


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("points", [1, 4, 4096])
def test_horner_keeps_the_reference_bits(q, points):
    # an in-place multiply differs in the last bit on one-element arrays
    rng = np.random.default_rng(10 * q + points)
    p = MatPoly(rng.standard_normal((7, q, q)) + 1j * rng.standard_normal((7, q, q)))
    zs = rng.uniform(0.5, 1.5, points) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, points))
    assert np.array_equal(p(zs), horner(p, zs))


def atomic_quotient(n_atoms):
    coeffs, _ = atomic_coeffs(np.random.default_rng(3), 1, n_atoms + 2, n_atoms)
    return central_quotient(gamma_from_covariance(HermSeq(coeffs)))


@pytest.fixture
def evals(monkeypatch):
    """Polynomial evaluations outside the residue oracle's `_polish`, single
    (MatPoly) and stacked (one Horner pass of a MatPolyStack), and inside it,
    where each Newton pass evaluates den and den' in one stacked pass."""
    seen = {"single": 0, "stacked": 0, "passes": 0, "single_in_polish": 0}
    inside = []
    call, stacked, polish = MatPoly.__call__, MatPolyStack.__call__, _oracle._polish

    def counted(self, z):
        seen["single_in_polish" if inside else "single"] += 1
        return call(self, z)

    def counted_stacked(self, z):
        seen["passes" if inside else "stacked"] += 1
        return stacked(self, z)

    def counted_polish(*args):
        inside.append(True)
        try:
            return polish(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(MatPoly, "__call__", counted)
    monkeypatch.setattr(MatPolyStack, "__call__", counted_stacked)
    monkeypatch.setattr(_oracle, "_polish", counted_polish)
    return seen


def test_atom_weights_do_not_loop_over_atoms(evals):
    quotients = {n_atoms: atomic_quotient(n_atoms) for n_atoms in (2, 8)}
    counts = {}
    for n_atoms, cq in quotients.items():
        evals.update(single=0, stacked=0, passes=0, single_in_polish=0)
        assert len(compute_atoms(cq)) == n_atoms
        counts[n_atoms] = dict(evals)
    for c in counts.values():
        # den, den' and num at all the polished points in one stacked pass,
        # and the oracle's num(0); det den was formed with the quotient
        assert (c["stacked"], c["single"]) == (1, 1)
        # one stacked pass of den and den' per Newton pass, nothing else
        assert 1 <= c["passes"] <= 8 and c["single_in_polish"] == 0


def test_polish_stops_once_every_point_has_converged(evals):
    # the residue oracle polishes the one near-circle zero of full-rank
    # AR1's quotient, one stacked evaluation of den and den' per Newton pass
    assert _oracle.near_circle(central_measure(AR1).quotient).points.size == 1
    assert 1 <= evals["passes"] <= 2
    assert evals["single_in_polish"] == 0


def test_atoms_skip_the_scalar_determinant_route():
    # atoms come from the compressed shift alone; the residue and
    # scalar-determinant routes live on only as test oracles in
    # tests/_oracle.py
    modules = [importlib.import_module(f"matspec.{m.name}")
               for m in pkgutil.iter_modules(matspec.__path__)]
    assert measure in modules and matpoly in modules
    for name in ("compute_atoms", "MultiplicityError", "unimodular_roots", "det_poly",
                 "poly_trim", "adjugate_poly", "matpoly_mul", "pole_limit", "radial_atom_limit"):
        assert [m.__name__ for m in modules if hasattr(m, name)] == []
    # the zeros of det den come from den's block companion, never np.roots
    assert [m.__name__ for m in modules if "np.roots" in inspect.getsource(m)] == []
    assert len(compute_atoms(atomic_quotient(8))) == 8
