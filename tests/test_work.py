"""Work counts of the prefix scan, the central predictor and the recovery
quadrature: each public entry point checks every prefix Toeplitz matrix
once, with one eigvalsh per prefix and no SVD norm of a prefix matrix,
solves for the central predictor with one pseudoinverse, and
verify_recovery finds det den and its zeros once."""

import numpy as np
import pytest

import matspec.measure as measure
from matspec import (
    ArOrderMismatchWarning,
    HermSeq,
    ar_spectrum,
    central_extend,
    central_measure,
    central_order,
    verify_recovery,
)

from _gen import random_tpd_seq

Q, N = 2, 16


@pytest.fixture
def seq():
    return random_tpd_seq(np.random.default_rng(5), Q, N)


@pytest.fixture
def calls(monkeypatch):
    """Shapes of the matrices handed to np.linalg.eigvalsh / svd / norm."""
    seen = {"eigvalsh": [], "svd": [], "norm": []}
    for name, shapes in seen.items():
        orig = getattr(np.linalg, name)

        def counted(a, *args, _orig=orig, _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return seen


def prefix_sized(shapes):
    # anything larger than a single q x q coefficient is a prefix matrix
    return [s for s in shapes if len(s) == 2 and max(s) > Q]


def test_central_measure_scans_once(seq, calls):
    central_measure(seq)
    assert len(calls["eigvalsh"]) == N + 1
    assert sorted(calls["eigvalsh"]) == [((k + 1) * Q,) * 2 for k in range(N + 1)]
    assert prefix_sized(calls["norm"]) == []


def test_central_extend_scans_input_and_result_once(seq, calls):
    ext = central_extend(seq, 2 * (N + 1))
    assert len(ext) == 2 * (N + 1)
    assert len(calls["eigvalsh"]) <= (N + 1) + 2 * (N + 1)
    assert prefix_sized(calls["norm"]) == []


def test_central_extend_solves_predictor_once(seq, calls):
    central_extend(seq, 2 * (N + 1))
    assert len(prefix_sized(calls["svd"])) == 1


def test_ar_spectrum_scans_prefix_and_extension_once(seq, calls):
    order = 8
    with pytest.warns(ArOrderMismatchWarning):
        ar_spectrum(seq, order)
    assert sorted(calls["eigvalsh"]) == sorted(
        [((k + 1) * Q,) * 2 for k in range(order + 1)]
        + [((k + 1) * Q,) * 2 for k in range(N + 1)]
    )
    assert len(prefix_sized(calls["svd"])) == 1


def test_central_order_scans_once(seq, calls):
    central_order(seq)
    assert len(calls["eigvalsh"]) <= N + 1
    assert prefix_sized(calls["norm"]) == []
    # one pseudoinverse per ball centre T_0'..T_{n-2}', nothing else
    assert len(prefix_sized(calls["svd"])) <= N - 1


@pytest.fixture
def pole_work(monkeypatch):
    """Calls of det_poly from matspec.measure and of np.roots."""
    seen = {"det_poly": 0, "roots": 0}

    def count(name, orig):
        def counted(*args, **kwargs):
            seen[name] += 1
            return orig(*args, **kwargs)
        return counted

    monkeypatch.setattr(measure, "det_poly", count("det_poly", measure.det_poly))
    monkeypatch.setattr(np, "roots", count("roots", np.roots))
    return seen


def test_verify_recovery_finds_poles_once(seq, pole_work):
    sm = central_measure(seq)
    dets, roots = pole_work["det_poly"], pole_work["roots"]
    verify_recovery(sm, seq)
    assert pole_work["det_poly"] - dets <= 1
    assert pole_work["roots"] - roots == 1


def test_near_boundary_grid_is_bounded(pole_work, grid_sizes):
    rho = 1.0 - 1e-4
    ar1 = HermSeq([np.array([[rho**j]], dtype=complex) for j in range(4)])
    sm = central_measure(ar1)
    roots = pole_work["roots"]
    verify_recovery(sm, ar1)
    assert pole_work["roots"] - roots == 1
    assert max(grid_sizes) <= 4096
