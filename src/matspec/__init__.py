"""Central extensions and explicit spectral measures of matrix covariance
sequences on the unit circle."""

from .caratheodory import (
    CaratheodoryQuotient,
    caratheodory_check,
    caratheodory_first_failure,
    central_quotient,
    pd_polynomials,
    phi_at,
    rational_values,
    taylor_coefficients,
)
from .central import (
    NOT_CENTRAL,
    GammaSeq,
    central_extend,
    central_order,
    covariance_from_gamma,
    gamma_from_covariance,
)
from .errors import (
    DimensionError,
    InvalidInputError,
    MatSpecError,
    ModelError,
)
from .linalg import spec_norm
from .matpoly import MatPoly
from .measure import (
    ArOrderMismatchWarning,
    Atom,
    RecoveryReport,
    SpectralMeasure,
    ar_spectrum,
    atomic_measure,
    central_measure,
    density_at,
    fourier_coeff,
    herglotz_transform,
    verify_recovery,
)
from .serialize import (
    doc_to_measure,
    doc_to_sequence,
    dumps,
    loads,
    measure_to_doc,
    sequence_to_doc,
)
from .toeplitz import (
    Classification,
    HermSeq,
    MatrixBall,
    ball_params,
    classify,
    first_violation,
    toeplitz_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ar_spectrum",
    "ArOrderMismatchWarning",
    "Atom",
    "atomic_measure",
    "ball_params",
    "caratheodory_check",
    "caratheodory_first_failure",
    "CaratheodoryQuotient",
    "central_extend",
    "central_measure",
    "central_order",
    "central_quotient",
    "Classification",
    "classify",
    "covariance_from_gamma",
    "density_at",
    "DimensionError",
    "doc_to_measure",
    "doc_to_sequence",
    "dumps",
    "first_violation",
    "fourier_coeff",
    "gamma_from_covariance",
    "GammaSeq",
    "herglotz_transform",
    "HermSeq",
    "InvalidInputError",
    "loads",
    "MatPoly",
    "MatrixBall",
    "MatSpecError",
    "measure_to_doc",
    "ModelError",
    "NOT_CENTRAL",
    "pd_polynomials",
    "phi_at",
    "rational_values",
    "RecoveryReport",
    "sequence_to_doc",
    "spec_norm",
    "SpectralMeasure",
    "taylor_coefficients",
    "toeplitz_matrix",
    "verify_recovery",
]
