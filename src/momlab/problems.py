"""Strictly convex quadratic objectives stored as their eigendecomposition.

A problem is f(x) = 1/2 x'Hx - b'x with H symmetric positive definite, so
the unique minimizer solves Hx* = b. A problem stores H = Q' diag(eigenvalues) Q
as its eigenvalues, Q and its minimizer x*; :func:`momlab.methods.run`
iterates in that eigenbasis, and only :mod:`momlab.oracle` forms H, b, the
gradient and a dense Q. The builders hand in an explicit positive spectrum,
x* = shift and either no rotation or a seeded :class:`Rotation`, a product of
Householder reflectors that is applied to a vector in O(n^2), so they need no
factorization, solve, matrix product or n x n array.

Everything is row-major float64 and immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "Rotation",
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
class Rotation:
    """An orthogonal Q = H_0 H_1 ... H_{n-2} diag(signs) kept as its
    Householder reflectors H_k = I - u_k u_k', never as an n x n matrix.

    u_k acts on coordinates k..n-1 (||u_k||^2 = 2 for a reflection);
    ``reflectors`` packs u_0, ..., u_{n-2} into one flat array of
    n(n+1)/2 - 1 values, and ``signs`` holds the n entries +-1 of the diagonal
    factor. Both are read-only; writable inputs are copied.
    """

    reflectors: np.ndarray
    signs: np.ndarray
    _blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        signs = _read_only(_as_vector(self.signs, what="signs"))
        n = signs.size
        if n == 0:
            raise DimensionMismatchError("signs must be non-empty")
        reflectors = _read_only(_as_vector(self.reflectors, n * (n + 1) // 2 - 1, "reflectors"))
        if not (np.all(np.abs(signs) == 1.0) and np.isfinite(reflectors).all()):
            raise ValueError("a rotation needs finite reflectors and signs of +1 or -1")
        starts = np.cumsum([0, *range(n, 1, -1)])
        blocks = tuple(reflectors[start:end] for start, end in zip(starts[:-1], starts[1:]))
        for name, value in (("reflectors", reflectors), ("signs", signs), ("_blocks", blocks)):
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return self.signs.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Qx for x of shape (n,), or row by row for a (..., n) stack."""
        z = np.multiply(x, self.signs, order="C")
        return self._reflect(z, range(self.dimension - 2, -1, -1))

    def apply_transpose(self, z: np.ndarray) -> np.ndarray:
        """Q'z for z of shape (n,), or row by row for a (..., n) stack."""
        x = self._reflect(np.array(z, dtype=float, order="C"), range(self.dimension - 1))
        x *= self.signs
        return x

    def _reflect(self, z: np.ndarray, order: range) -> np.ndarray:
        """Apply H_k for k in ``order`` to the C-ordered ``z`` in place, one
        1-d dot per reflector; a stack takes that dot row by row as a stacked
        (rows, 1, m) @ (m, 1) product, so each row is bitwise its own result."""
        if z.ndim == 1:
            for k in order:
                tail, u = z[k:], self._blocks[k]
                tail -= np.dot(tail, u) * u
            return z
        rows = z.reshape(-1, z.shape[-1])
        for k in order:
            tail, u = rows[:, k:], self._blocks[k]
            tail -= np.matmul(tail[:, None], u[:, None])[:, 0] * u
        return z


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """f(x) = 1/2 x'Hx - b'x stored as its eigendecomposition
    H = Q' diag(eigenvalues) Q and its minimizer x*, so that b = Hx*.

    ``rotation`` is Q as a :class:`Rotation`, or None when H is diagonal
    (Q = I). The eigenvalues must pass the singularity test and be positive,
    and b must be finite, which is checked as Q'(eigenvalues * Qx*) by two
    reflector passes without forming H (b = 0 when x* = 0). All arrays are
    read-only.
    """

    eigenvalues: np.ndarray
    rotation: Rotation | None
    x_star: np.ndarray

    def __post_init__(self):
        eigenvalues = _read_only(_as_vector(self.eigenvalues, what="eigenvalues"))
        n = eigenvalues.size
        if n == 0:
            raise DimensionMismatchError("eigenvalues must be non-empty")
        x_star = _read_only(_as_vector(self.x_star, n, "x_star"))
        q = self.rotation
        if q is not None and not isinstance(q, Rotation):
            raise TypeError(f"rotation must be a Rotation or None, got {type(q).__name__}")
        if q is not None and q.dimension != n:
            raise DimensionMismatchError(f"rotation has dimension {q.dimension}, expected {n}")
        for name, value in (("eigenvalues", eigenvalues), ("x_star", x_star)):
            object.__setattr__(self, name, value)
        with np.errstate(over="ignore", invalid="ignore"):
            if q is not None and x_star.any():
                b = q.apply_transpose(eigenvalues * q.apply(x_star))
            else:
                b = eigenvalues * x_star
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


def random_orthogonal(n: int, seed: int) -> Rotation:
    """Seeded Haar-distributed rotation in reflector form (Stewart 1980).

    One ``standard_normal`` call draws n(n+1)/2 values, read in order as
    blocks x_k of n - k values for k = 0..n-1. For k < n-1 the reflector H_k
    maps x_k to -s_k ||x_k|| e_1 with s_k = sign(x_k[0]), so
    u_k = (x_k + s_k ||x_k|| e_1) / sqrt(||x_k|| (||x_k|| + |x_k[0]|)); the
    signs are (-s_0, ..., -s_{n-2}, sign(x_{n-1})). That is the Q factor of
    Householder QR, signed so that R has a positive diagonal (Mezzadri 2007),
    of a Gaussian matrix whose k-th column below the diagonal, after the
    first k reflections, is x_k: the law of the Q factor of a Gaussian fill.
    O(n^2) draws and flops, no n x n array, and no BLAS call whose bits
    depend on the thread count.
    """
    draws = np.random.default_rng(seed).standard_normal(n * (n + 1) // 2)
    reflectors, signs = draws[:-1], np.empty(n)
    start = 0
    for k in range(n - 1):
        x = reflectors[start : start + n - k]
        head, norm = float(x[0]), math.sqrt(np.dot(x, x))
        signs[k] = -math.copysign(1.0, head)
        x[0] -= signs[k] * norm
        x /= math.sqrt(norm * (norm + abs(head)))
        start += n - k
    signs[-1] = math.copysign(1.0, draws[-1])
    return Rotation(_frozen(reflectors), _frozen(signs))


def make_rotated_problem(spectrum, seed: int, shift) -> QuadraticProblem:
    """Rotated-and-shifted problem H = Q'DQ, b = H @ shift, so x* = shift."""
    spectrum = _checked_spectrum(spectrum)
    rotation = random_orthogonal(spectrum.size, seed)
    return QuadraticProblem(spectrum, rotation, _as_vector(shift, spectrum.size, "shift"))


def _to_eigenbasis(problem: QuadraticProblem, x: np.ndarray) -> np.ndarray:
    """Error coordinates z = Q(x - x*) of x of shape (..., n): one reflector
    pass per row, so each row is bitwise its own result."""
    e = x - problem.x_star
    return e if problem.rotation is None else problem.rotation.apply(e)


def _from_eigenbasis(problem: QuadraticProblem, z: np.ndarray) -> np.ndarray:
    """Points x = x* + Q'z of error coordinates z of shape (..., n), row by row."""
    if problem.rotation is not None:
        z = problem.rotation.apply_transpose(z)
    return problem.x_star + z
