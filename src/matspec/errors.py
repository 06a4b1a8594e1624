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
    """The zeros of det den clustered at an atom do not match den's kernel
    there: their count differs from its dimension, or den' is singular on
    it.  ``root`` is the atom, ``multiplicity`` the cluster size."""

    def __init__(self, message, root=None, multiplicity=None):
        super().__init__(message)
        self.root = root
        self.multiplicity = multiplicity


class DegenerateZeroError(MatSpecError):
    """Every derivative of a polynomial is numerically zero at the point."""


class NoLimitError(MatSpecError):
    """A numeric limit did not stabilize across extrapolation steps."""
