"""Exception types shared across the toolkit."""


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes."""


class SingularMatrixError(ArithmeticError):
    """A matrix required to be invertible is (numerically) singular."""


class DegenerateStepError(ArithmeticError):
    """A Barzilai-Borwein step is undefined because the iterate did not move."""


class DivergenceError(ArithmeticError):
    """An iteration or a prediction produced non-finite values.

    ``iteration`` carries the 1-based iteration or epoch index when known.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class DomainError(ValueError):
    """A loss was evaluated outside its mathematical domain."""


class DataError(ValueError):
    """A data file or schema is unusable (missing columns, bad cells, ...)."""


class ModelFormatError(ValueError):
    """A model file is malformed, truncated, or has an unsupported version."""


class UsageError(ValueError):
    """The command line was invoked incorrectly."""
