"""Strictly convex quadratic objectives stored as their eigendecomposition.

A problem is f(x) = 1/2 x'Hx - b'x with H symmetric positive definite, so
the unique minimizer solves Hx* = b. A problem stores H = Q' diag(eigenvalues) Q
as its eigenvalues and Q, and its minimizer x*; :func:`momlab.methods.run`
iterates in that eigenbasis, and only :mod:`momlab.oracle` forms H, b and the
gradient. The builders hand in an explicit positive spectrum, x* = shift and
either no rotation or a seeded one from sign-fixed Householder QR, so they
need no factorization, solve or matrix product.

Everything is dense, row-major float64, and immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidSpectrumError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

__all__ = [
    "EigenBounds",
    "QuadraticProblem",
    "make_diagonal_problem",
    "make_rotated_problem",
    "random_orthogonal",
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
class EigenBounds:
    """Bounds 0 < lower <= upper on the Hessian spectrum."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper) or not np.isfinite(self.upper):
            raise InvalidSpectrumError(
                f"need 0 < lower <= upper < inf, got lower={self.lower}, upper={self.upper}"
            )
        with np.errstate(over="ignore"):
            ratio = self.upper / self.lower
        if not np.isfinite(ratio):
            raise InvalidSpectrumError(
                f"upper/lower overflows float64 at lower={self.lower}, upper={self.upper}"
            )

    @property
    def cond_bar(self) -> float:
        """Upper bound upper/lower on the condition number."""
        return self.upper / self.lower

    @classmethod
    def from_spectrum(cls, spectrum: np.ndarray) -> "EigenBounds":
        return cls(float(np.min(spectrum)), float(np.max(spectrum)))


def _read_only(x) -> np.ndarray:
    """``x`` as a read-only float array; a writable one is copied, not frozen."""
    a = np.asarray(x, dtype=float)
    return _frozen(a.copy()) if a.flags.writeable else a


def _checked_spectrum(values) -> np.ndarray:
    """``values`` as a read-only float array of finite positive eigenvalues,
    kept in the order given."""
    eig = np.atleast_1d(np.asarray(values, dtype=float))
    if eig.ndim != 1 or eig.size == 0:
        raise InvalidSpectrumError("spectrum must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(eig)) or np.any(eig <= 0.0):
        raise InvalidSpectrumError(
            f"all eigenvalues must be finite and strictly positive, got {eig.tolist()}"
        )
    return _read_only(eig)


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """f(x) = 1/2 x'Hx - b'x stored as its eigendecomposition
    H = Q' diag(eigenvalues) Q and its minimizer x*, so that b = Hx*.

    ``rotation`` is Q, or None when H is diagonal (Q = I). The eigenvalues
    must pass the singularity test and be positive, and b must be finite,
    which is checked as Q'(eigenvalues * Qx*) in O(n^2) without forming H.
    All arrays are read-only.
    """

    eigenvalues: np.ndarray
    rotation: np.ndarray | None
    x_star: np.ndarray

    def __post_init__(self):
        eigenvalues = _read_only(_as_vector(self.eigenvalues, what="eigenvalues"))
        n = eigenvalues.size
        if n == 0:
            raise DimensionMismatchError("eigenvalues must be non-empty")
        x_star = _read_only(_as_vector(self.x_star, n, "x_star"))
        q = None if self.rotation is None else _read_only(self.rotation)
        if q is not None and q.shape != (n, n):
            raise DimensionMismatchError(f"rotation has shape {q.shape}, expected {(n, n)}")
        for name, value in (("eigenvalues", eigenvalues), ("rotation", q), ("x_star", x_star)):
            object.__setattr__(self, name, value)
        with np.errstate(over="ignore", invalid="ignore"):
            b = eigenvalues * x_star if q is None else q.T @ (eigenvalues * (q @ x_star))
        if not (np.isfinite(eigenvalues).all() and np.isfinite(b).all()):  # b may overflow
            raise InvalidSpectrumError("hessian and linear_term must be finite")
        magnitudes = np.abs(eigenvalues)
        lo, tol = magnitudes.min(), SINGULARITY_RTOL * magnitudes.max()
        if lo < tol:
            raise SingularMatrixError(
                f"smallest eigenvalue magnitude {lo:.3e} below tolerance {tol:.3e}"
            )
        if eigenvalues.min() <= 0.0:
            raise NotPositiveDefiniteError("hessian is not positive definite")

    @property
    def dimension(self) -> int:
        return self.eigenvalues.size


def make_diagonal_problem(spectrum) -> QuadraticProblem:
    """Diagonal problem H = diag(spectrum), b = 0; the minimizer is the origin."""
    spectrum = _checked_spectrum(spectrum)
    return QuadraticProblem(spectrum, None, _frozen(np.zeros(spectrum.size)))


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
    spectrum = _checked_spectrum(spectrum)
    rotation = _frozen(random_orthogonal(spectrum.size, seed))
    return QuadraticProblem(spectrum, rotation, _as_vector(shift, spectrum.size, "shift"))


def _to_eigenbasis(problem: QuadraticProblem, x: np.ndarray) -> np.ndarray:
    """Error coordinates z = Q(x - x*) of x of shape (..., n), one
    matrix-vector product per row, so each row is bitwise its own result."""
    e = x - problem.x_star
    if problem.rotation is None:
        return e
    return np.matmul(problem.rotation, e[..., None])[..., 0]


def _from_eigenbasis(problem: QuadraticProblem, z: np.ndarray) -> np.ndarray:
    """Points x = x* + Q'z of error coordinates z of shape (..., n), row by row."""
    if problem.rotation is not None:
        z = np.matmul(problem.rotation.T, z[..., None])[..., 0]
    return problem.x_star + z
