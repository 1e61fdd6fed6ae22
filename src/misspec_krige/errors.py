"""Exception types shared across the package."""


class MisspecKrigeError(Exception):
    """Base class for all errors raised by this library."""


class DomainError(MisspecKrigeError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class IllConditionedDesignError(MisspecKrigeError, RuntimeError):
    """The Gram matrix could not be factorized even at the maximum jitter level."""

    def __init__(self, message: str, leading_minor: int | None = None,
                 max_jitter: float | None = None):
        super().__init__(message)
        self.leading_minor = leading_minor
        self.max_jitter = max_jitter


class NumericalFailureError(MisspecKrigeError, RuntimeError):
    """A computed quantity violated a tolerance that signals numerical breakdown."""


class OptimalityError(NumericalFailureError):
    """A predictor beat the optimal one under the optimal one's own measure."""


class NegativeVarianceError(NumericalFailureError):
    """An error variance came out negative beyond rounding."""


class PartialResultError(NumericalFailureError):
    """Some schedule levels failed; the completed ones are attached.

    ``partial_table`` holds the records of the levels that finished and its
    metadata carries a ``failed_levels`` marker.
    """

    def __init__(self, message: str, partial_table=None):
        super().__init__(message)
        self.partial_table = partial_table


class ConfigError(MisspecKrigeError, ValueError):
    """An experiment configuration is malformed or violates the schema."""
