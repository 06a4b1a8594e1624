import pytest

import matspec.measure as measure


@pytest.fixture
def grid_sizes(monkeypatch):
    """Node counts of the quadrature grids built inside matspec.measure."""
    seen = []
    orig = measure._quadrature_angles

    def counted(nodes, poles=()):
        seen.append(nodes)
        return orig(nodes, poles)

    monkeypatch.setattr(measure, "_quadrature_angles", counted)
    return seen
