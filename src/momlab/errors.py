"""Exception types shared across the package, and the storage limit that
commands check before they allocate."""

# Largest array a command may store: a rotated problem, charged n * n values
# although its reflectors hold n(n+1)/2 (no command forms a dense Q or
# Hessian), a figure's CSV table, a sweep's (points, kmax) log array and a
# verify run's (num_steps + 1) * n iterates per start. This caps its memory at a few arrays of 8 * MAX_RUN_VALUES bytes;
# CSV text is written in bounded chunks of rows, so it adds no table-sized
# string on top. A ``momlab run`` keeps no history: the guard bounds its work.
MAX_RUN_VALUES = 20_000_000


class InvalidSpectrumError(ValueError):
    """A non-finite value in a spectrum or problem, or a non-positive eigenvalue."""


class NotPositiveDefiniteError(ValueError):
    """A user-supplied matrix has a non-positive smallest eigenvalue."""


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


def require_storable(values: int, what: str) -> None:
    """Raise ConfigError if ``what`` would store more than MAX_RUN_VALUES values."""
    if values > MAX_RUN_VALUES:
        raise ConfigError(
            f"{what} would store {values} values, above MAX_RUN_VALUES={MAX_RUN_VALUES}"
        )
