"""Exception types shared across the package."""


class InvalidSpectrumError(ValueError):
    """A non-finite value in a spectrum or problem, or a non-positive eigenvalue."""


class NotPositiveDefiniteError(ValueError):
    """A user-supplied matrix failed the Cholesky definiteness test."""


class SingularMatrixError(ValueError):
    """A Hessian's min |eigenvalue| is below SINGULARITY_RTOL times its max."""


class DimensionMismatchError(ValueError):
    """A vector or matrix does not match the problem dimension."""


class DomainError(ValueError):
    """A block parameter lies outside its admissible range."""


class PreconditionError(ValueError):
    """A hypothesis of one of the fixed-parameter rules is violated.

    Carries the violated threshold so callers can report it.
    """

    def __init__(self, message: str, *, threshold: float | None = None):
        super().__init__(message)
        self.threshold = threshold


class InternalConsistencyError(RuntimeError):
    """A closed-form result failed its built-in sanity check."""


class ConfigError(ValueError):
    """A run configuration is malformed or self-contradictory."""
