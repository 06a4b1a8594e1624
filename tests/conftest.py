import pytest

import _oracle


@pytest.fixture
def grid_sizes(monkeypatch):
    """Node counts of the grids the quadrature oracle of tests/_oracle.py
    builds."""
    seen = []
    orig = _oracle._quadrature_angles

    def counted(nodes, poles=()):
        seen.append(nodes)
        return orig(nodes, poles)

    monkeypatch.setattr(_oracle, "_quadrature_angles", counted)
    return seen
