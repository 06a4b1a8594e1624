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
