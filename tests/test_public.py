"""The public surface: the names the README workflows use, and no more.
Helpers outside it stay importable from their submodules, and the functions
take only the settings some caller sets."""

import ast
import importlib
import inspect
import re
from functools import reduce
from pathlib import Path

import numpy as np

import matspec

PUBLIC = [
    "ArOrderMismatchWarning",
    "Atom",
    "CaratheodoryQuotient",
    "Classification",
    "DimensionError",
    "GammaSeq",
    "HermSeq",
    "InvalidInputError",
    "MatPoly",
    "MatSpecError",
    "MatrixBall",
    "ModelError",
    "NOT_CENTRAL",
    "RecoveryReport",
    "SpectralMeasure",
    "ar_spectrum",
    "atomic_measure",
    "ball_params",
    "caratheodory_check",
    "caratheodory_first_failure",
    "central_extend",
    "central_measure",
    "central_order",
    "central_quotient",
    "classify",
    "covariance_from_gamma",
    "density_at",
    "doc_to_measure",
    "doc_to_sequence",
    "dumps",
    "first_violation",
    "fourier_coeff",
    "gamma_from_covariance",
    "herglotz_transform",
    "loads",
    "measure_to_doc",
    "pd_polynomials",
    "phi_at",
    "rational_values",
    "sequence_to_doc",
    "spec_norm",
    "taylor_coefficients",
    "toeplitz_matrix",
    "verify_recovery",
]


HELPERS = {
    "linalg": ["re_mat"],
    "serialize": ["hermitian_from_lower", "mat_to_wire", "wire_to_mat"],
}


def test_all_is_pinned():
    assert len(PUBLIC) == 44
    assert sorted(matspec.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in PUBLIC if not hasattr(matspec, name)] == []


def test_helpers_stay_in_their_submodules():
    for module, names in HELPERS.items():
        mod = importlib.import_module(f"matspec.{module}")
        assert all(callable(getattr(mod, name)) for name in names)
        assert set(names).isdisjoint(matspec.__all__)


# Parameter names, in order.  The tolerances a library call takes are the
# CLI's (psd_tol, rank_rtol, root_tol, the recovery tol); everything else is
# a named module constant.
SIGNATURES = {
    "ar_spectrum": ["seq", "order", "psd_tol", "rank_rtol"],
    "atomic_measure": ["atoms", "q"],
    "ball_params": ["seq", "n"],
    "central_extend": ["seq", "target_len", "psd_tol", "rank_rtol"],
    "central_measure": ["seq", "psd_tol", "rank_rtol", "root_tol"],
    "central_order": ["seq"],
    "central_quotient": ["g", "n", "rank_rtol", "psd_tol"],
    "density_at": ["sm", "zeta"],
    "fourier_coeff": ["sm", "j"],
    "herglotz_transform": ["sm", "z"],
    "MatPoly.trim": ["self"],
    "pd_polynomials": ["seq"],
    "verify_recovery": ["sm", "seq", "tol"],
}


def params(path):
    func = reduce(getattr, path.split("."), matspec)
    return list(inspect.signature(func).parameters)


def test_functions_take_only_the_settings_callers_set():
    assert {path: params(path) for path in SIGNATURES} == SIGNATURES


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    seq, sm = ns["seq"], ns["sm"]
    (atom,) = sm.atoms
    assert abs(atom.point - 1.0) < 1e-12
    assert np.allclose(atom.weight, np.diag([0.0, 1.0]), atol=1e-12)
    want = np.diag([1.0, 0.0]) / (2.0 * np.pi)
    assert np.allclose(sm.density_grid(np.array([2.0]))[0], want, atol=1e-12)
    assert np.allclose(matspec.fourier_coeff(sm, 1), seq.coeffs[1], atol=1e-10)


def top_level_names(tree):
    """Functions, classes and assigned names at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def test_no_dead_module_names():
    # a top-level name outside __all__ must be read somewhere in the package
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in Path(matspec.__file__).parent.glob("*.py")
    }
    known = set(matspec.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                known.add(node.id)
            elif isinstance(node, ast.Attribute):
                known.add(node.attr)
    dead = [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for name in top_level_names(tree)
        if not name.startswith("__") and name not in known
    ]
    assert dead == []
