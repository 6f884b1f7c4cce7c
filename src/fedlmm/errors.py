"""Exception types shared across the package."""


class FedLMMError(Exception):
    """Base class for all package errors."""


class ValidationError(FedLMMError):
    """Invalid input: bad shapes, non-finite values, schema violations."""


class SingularDesignError(FedLMMError):
    """Aggregated weight matrix is singular or numerically unusable."""

    def __init__(self, message: str, condition_number: float | None = None):
        super().__init__(message)
        self.condition_number = condition_number


class CapacityError(FedLMMError):
    """Problem size exceeds a configured capacity limit."""


class SolverTimeoutError(FedLMMError):
    """A reconstruction search ran past its configured time limit."""
