"""Exception types shared across the package."""


class MatSpecError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(MatSpecError):
    """Operands have incompatible or non-square shapes."""


class InvalidInputError(MatSpecError):
    """Input violates a precondition (non-finite entries, bad tolerance, ...)."""


class ModelError(MatSpecError):
    """Data violates a model assumption (nonnegativity, Caratheodory class, ...).

    ``index`` optionally names the first offending prefix or coefficient.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class MultiplicityError(MatSpecError):
    """A root multiplicity failed validation, against derivative magnitudes
    or against the kernel dimension of the denominator at the root."""

    def __init__(self, message, root=None, multiplicity=None):
        super().__init__(message)
        self.root = root
        self.multiplicity = multiplicity


class DegenerateZeroError(MatSpecError):
    """Every derivative of a polynomial is numerically zero at the point."""


class NoLimitError(MatSpecError):
    """A numeric limit did not stabilize across extrapolation steps."""
