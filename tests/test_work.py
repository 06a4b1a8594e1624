"""Work counts of the prefix scan and the central predictor: each public
entry point checks every prefix Toeplitz matrix once, with one eigvalsh per
prefix and no SVD norm of a prefix matrix, and solves for the central
predictor with one pseudoinverse."""

import numpy as np
import pytest

from matspec import (
    ArOrderMismatchWarning,
    ar_spectrum,
    central_extend,
    central_measure,
    central_order,
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
