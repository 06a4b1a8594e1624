"""The public surface: the names the README workflows use, and no more.
Helpers outside it stay importable from their submodules."""

import importlib

import matspec

PUBLIC = [
    "ArOrderMismatchWarning",
    "Atom",
    "CaratheodoryQuotient",
    "Classification",
    "DegenerateZeroError",
    "DimensionError",
    "GammaSeq",
    "HermSeq",
    "InvalidInputError",
    "MatPoly",
    "MatSpecError",
    "MatrixBall",
    "ModelError",
    "MultiplicityError",
    "NOT_CENTRAL",
    "NoLimitError",
    "Provenance",
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
    "compute_atoms",
    "conjugate_by_unitary",
    "covariance_from_gamma",
    "density_at",
    "det_poly",
    "doc_to_measure",
    "doc_to_sequence",
    "dumps",
    "first_violation",
    "fourier_coeff",
    "gamma_from_covariance",
    "herglotz_transform",
    "loads",
    "measure_to_doc",
    "pd_density",
    "pd_measure",
    "pd_polynomials",
    "phi_at",
    "pole_limit",
    "radial_atom_limit",
    "rational_values",
    "sequence_to_doc",
    "spec_norm",
    "taylor_coefficients",
    "toeplitz_matrix",
    "verify_recovery",
]


HELPERS = {
    "linalg": ["im_mat", "is_nonneg_hermitian", "is_unitary", "numerical_rank",
               "pinv", "psd_sqrt", "re_mat"],
    "serialize": ["hermitian_from_lower", "mat_to_wire", "wire_to_mat"],
    "toeplitz": ["ball_membership", "rank_drop"],
}


def test_all_is_pinned():
    assert len(PUBLIC) == 55
    assert sorted(matspec.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in PUBLIC if not hasattr(matspec, name)] == []


def test_helpers_stay_in_their_submodules():
    for module, names in HELPERS.items():
        mod = importlib.import_module(f"matspec.{module}")
        assert all(callable(getattr(mod, name)) for name in names)
        assert set(names).isdisjoint(matspec.__all__)
