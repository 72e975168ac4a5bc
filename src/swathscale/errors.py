"""Exception hierarchy shared across the solver."""


class SwathscaleError(Exception):
    """Base class for all errors raised by this package."""


class NotInterior(SwathscaleError):
    """A point required to be strictly inside the cone is not."""


class NumericalFailure(SwathscaleError):
    """Linear algebra broke down beyond the configured condition bounds."""


class DomainError(SwathscaleError):
    """A scalar argument is outside its admissible range."""


class DimensionMismatch(SwathscaleError):
    """Array shapes are inconsistent with the instance dimensions."""


class DegenerateLeadingCoefficient(SwathscaleError):
    """Leading coefficient of a restricted polynomial is numerically zero."""


class ConvexityViolation(NumericalFailure):
    """The step polynomial lost strict convexity (upstream corruption)."""


class StepBoundViolation(NumericalFailure):
    """Computed step length fell below its guaranteed lower bound."""


class ParseError(SwathscaleError):
    """Malformed instance file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolation(SwathscaleError):
    """Instance data violates a structural assumption (rank, b != 0, ...)."""


class RetryExhausted(SwathscaleError):
    """Random instance generation failed repeatedly."""
