"""Strictly convex quadratic objectives with exact gradients and minimizers.

A problem is f(x) = 1/2 x'Hx - b'x with H symmetric positive definite, so
grad f(x) = Hx - b and the unique minimizer solves Hx* = b. All problems are
built from an explicit positive spectrum -- either as a diagonal matrix or
conjugated by a seeded random rotation -- which guarantees definiteness by
construction. Rotations come from sign-fixed Householder QR. Arbitrary
matrices are accepted only through ``QuadraticProblem.from_matrix``, which
runs a Cholesky rejection test. Minimizers come from a LAPACK solve.

Everything is dense, row-major float64, and immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidSpectrumError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

__all__ = [
    "DiagonalSpectrum",
    "EigenBounds",
    "QuadraticProblem",
    "make_diagonal_problem",
    "make_rotated_problem",
    "random_orthogonal",
    "gradient",
    "minimizer",
    "gershgorin_upper",
]

# A Hessian with min|eig| < SINGULARITY_RTOL * max|eig| is rejected as singular.
SINGULARITY_RTOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_vector(x, n: int | None = None, what: str = "vector") -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatchError(f"{what} must be 1-d, got shape {v.shape}")
    if n is not None and v.size != n:
        raise DimensionMismatchError(f"{what} has length {v.size}, expected {n}")
    return v


def _as_points(x, n: int, what: str = "x") -> np.ndarray:
    """``x`` as a float array of shape (n,) or (batch, n)."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim > 2:
        raise DimensionMismatchError(f"{what} must be 1-d or 2-d, got shape {v.shape}")
    if v.shape[-1] != n:
        raise DimensionMismatchError(f"{what} has length {v.shape[-1]}, expected {n}")
    return v


@dataclass(frozen=True)
class DiagonalSpectrum:
    """Positive eigenvalues of a diagonal Hessian, sorted ascending."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        eig = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
        if eig.ndim != 1 or eig.size == 0:
            raise InvalidSpectrumError("spectrum must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(eig)) or np.any(eig <= 0.0):
            raise InvalidSpectrumError(
                f"all eigenvalues must be finite and strictly positive, got {eig.tolist()}"
            )
        object.__setattr__(self, "eigenvalues", _frozen(np.sort(eig)))

    @property
    def n(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class EigenBounds:
    """Bounds 0 < lower <= upper on the Hessian spectrum."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper) or not np.isfinite(self.upper):
            raise InvalidSpectrumError(
                f"need 0 < lower <= upper < inf, got lower={self.lower}, upper={self.upper}"
            )

    @property
    def cond_bar(self) -> float:
        """Upper bound upper/lower on the condition number."""
        return self.upper / self.lower

    @classmethod
    def from_spectrum(cls, spectrum: DiagonalSpectrum) -> "EigenBounds":
        eig = spectrum.eigenvalues
        return cls(float(eig[0]), float(eig[-1]))


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """f(x) = 1/2 x'Hx - b'x with H symmetric positive definite.

    Both arrays must be finite, and H must pass the eigenvalue singularity
    test, which a rotation of the problem does not change. The minimizer is
    solved once at construction (LAPACK) and stored read-only in ``x_star``.
    """

    hessian: np.ndarray
    linear_term: np.ndarray
    x_star: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = np.array(self.hessian, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatchError(f"hessian must be square, got shape {h.shape}")
        b = _as_vector(self.linear_term, h.shape[0], "linear_term")
        with np.errstate(over="ignore", invalid="ignore"):
            h = 0.5 * (h + h.T)  # store exactly symmetric
        if not (np.isfinite(h).all() and np.isfinite(b).all()):
            raise InvalidSpectrumError("hessian and linear_term must be finite")
        eig = np.abs(np.linalg.eigvalsh(h))
        lo, tol = eig.min(), SINGULARITY_RTOL * eig.max()
        if lo < tol:
            raise SingularMatrixError(
                f"smallest eigenvalue magnitude {lo:.3e} below tolerance {tol:.3e}"
            )
        try:
            x_star = np.linalg.solve(h, b)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"hessian is singular: {exc}") from exc
        object.__setattr__(self, "hessian", _frozen(h))
        object.__setattr__(self, "linear_term", _frozen(b))
        object.__setattr__(self, "x_star", _frozen(x_star))

    @property
    def dimension(self) -> int:
        return self.linear_term.size

    @classmethod
    def from_matrix(cls, hessian, linear_term) -> "QuadraticProblem":
        """Accept an arbitrary matrix after symmetry and definiteness checks."""
        h = np.array(hessian, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatchError(f"hessian must be square, got shape {h.shape}")
        scale = max(float(np.abs(h).max()), 1.0)
        if np.abs(h - h.T).max() > 1e-12 * scale:
            raise ValueError("hessian is not symmetric")
        try:
            np.linalg.cholesky(0.5 * (h + h.T))
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("hessian is not positive definite") from exc
        return cls(h, linear_term)


def make_diagonal_problem(spectrum) -> QuadraticProblem:
    """Diagonal problem H = diag(spectrum), b = 0; the minimizer is the origin."""
    if not isinstance(spectrum, DiagonalSpectrum):
        spectrum = DiagonalSpectrum(spectrum)
    return QuadraticProblem(np.diag(spectrum.eigenvalues), np.zeros(spectrum.n))


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Seeded random orthogonal matrix: the Q factor of a Gaussian fill.

    Householder QR with each column's sign flipped so that R has a positive
    diagonal; that is the Q of Gram-Schmidt on the same fill, up to rounding.
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    r_diag = np.diag(r)
    if np.abs(r_diag).min() < 1e-12:
        raise RuntimeError("degenerate Gaussian sample while orthonormalizing")
    q *= np.copysign(1.0, r_diag)
    return q


def make_rotated_problem(spectrum, seed: int, shift) -> QuadraticProblem:
    """Rotated-and-shifted problem H = Q'DQ, b = H @ shift, so x* = shift."""
    if not isinstance(spectrum, DiagonalSpectrum):
        spectrum = DiagonalSpectrum(spectrum)
    shift = _as_vector(shift, spectrum.n, "shift")
    q = random_orthogonal(spectrum.n, seed)
    h = (q.T * spectrum.eigenvalues) @ q  # q.T @ diag(eigenvalues) @ q
    h = 0.5 * (h + h.T)
    with np.errstate(over="ignore", invalid="ignore"):
        b = h @ shift  # an overflow here is rejected as non-finite
    return QuadraticProblem(h, b)


def gradient(problem: QuadraticProblem, x) -> np.ndarray:
    """grad f(x) = Hx - b for ``x`` of shape (n,), or row by row for a
    (batch, n) stack; the result has the shape of ``x``.

    The stacked product runs one matrix-vector product per row, so each row
    is bitwise equal to the gradient of that row alone.
    """
    x = _as_points(x, problem.dimension, "x")
    return np.matmul(problem.hessian, x[..., None])[..., 0] - problem.linear_term


def minimizer(problem: QuadraticProblem) -> np.ndarray:
    """The stored solution of Hx* = b."""
    return problem.x_star


def gershgorin_upper(problem: QuadraticProblem) -> float:
    """Row-circle upper bound max_i (H[i,i] + sum_{j!=i} |H[i,j]|) >= lambda_max."""
    h = problem.hessian
    diag = np.diag(h)
    radii = np.abs(h).sum(axis=1) - np.abs(diag)
    return float((diag + radii).max())
