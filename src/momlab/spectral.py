"""Closed-form analysis of the per-eigenvalue 2x2 iteration blocks.

On a diagonal problem every coordinate i evolves independently under a 2x2
matrix acting on (x^{k-1}_i, x^k_i). With a_i = alpha * D_ii the blocks are

* heavy-ball:           [[0, 1], [-beta,            1 + beta - a_i     ]]
* accelerated gradient: [[0, 1], [-beta*(1 - a_i),  (1+beta)*(1 - a_i) ]]

Both have the companion shape [[0, 1], [-c, t]] with characteristic
polynomial l^2 - t*l + c, eigenvalues l_pm = (t +- gamma)/2 where
gamma = sqrt(t^2 - 4c) (non-negative real, or with positive imaginary
part), and spectral radius

    rho = sqrt(c)              if t^2 < 4c   (complex conjugate pair)
    rho = (|t| + gamma) / 2    otherwise.

The module also provides the eigenvector-basis condition number (which blows
up at the double root), the well-conditioned Schur triangularization
T R T^{-1} with cond(T) <= 3, exact powers of R and of the block itself via
explicit cross sums, and the transient norm bound ||block^k|| <= 2 rho^{k-1} (k+1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError

__all__ = [
    "BlockSpectrum",
    "SchurFactors",
    "hbm_block",
    "nag_block",
    "analyze_hbm",
    "analyze_nag",
    "eigvec_condition",
    "schur_factors",
    "r_power",
    "block_power",
    "power_norm_bound",
    "spectral_norm_2x2",
    "gershgorin_norm_bound",
    "parameter_grid",
    "double_root_beta",
    "snapped_double_root",
    "COMPLEX_PAIR",
    "REAL_PAIR",
    "DOUBLE_ROOT",
    "DOUBLE_ROOT_TOL",
    "ALPHA_I_MAX",
]

COMPLEX_PAIR = "complex_pair"
REAL_PAIR = "real_pair"
DOUBLE_ROOT = "double_root"

# |t^2 - 4c| below this is treated as a double eigenvalue (Jordan path).
DOUBLE_ROOT_TOL = 1e-12

# Admissible normalized step a_i = alpha * D_ii for the heavy-ball block.
ALPHA_I_MAX = 2.0

# Momentum axis {0, 0.05, ..., 0.95} of parameter_grid and the figure surfaces.
_GRID_BETAS = tuple(0.05 * l for l in range(20))


@dataclass(frozen=True)
class BlockSpectrum:
    """Spectral data of one companion block [[0, 1], [-product, beta_i]].

    ``beta_i`` is the trace and ``product`` the determinant (= l_+ * l_-):
    beta for the heavy-ball block, beta*(1 - alpha_i) for the accelerated
    one. ``gamma`` follows the branch convention "non-negative real, or
    positive imaginary part".
    """

    alpha_i: float
    beta: float
    beta_i: float
    product: float
    gamma: complex
    lambda_plus: complex
    lambda_minus: complex
    rho: float
    regime: str

    def block(self) -> np.ndarray:
        return np.array([[0.0, 1.0], [-self.product, self.beta_i]])


def _check_beta(beta: float):
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"beta must lie in [0, 1), got {beta}")


def _check_alpha_hbm(alpha_i: float, strict: bool):
    if not (0.0 < alpha_i <= ALPHA_I_MAX):
        if strict:
            raise DomainError(
                f"alpha_i must lie in (0, {ALPHA_I_MAX:g}], got {alpha_i}"
            )
        warnings.warn(
            f"alpha_i={alpha_i} outside (0, {ALPHA_I_MAX:g}]; continuing (strict=False)",
            stacklevel=3,
        )


def hbm_block(alpha_i: float, beta: float, *, strict: bool = True) -> np.ndarray:
    """Heavy-ball block [[0, 1], [-beta, 1 + beta - alpha_i]].

    With ``strict=False`` an out-of-range alpha_i only warns, so slightly
    "too long" steps can be explored.
    """
    return analyze_hbm(alpha_i, beta, strict=strict).block()


def nag_block(alpha_i: float, beta: float) -> np.ndarray:
    """Accelerated-gradient block [[0, 1], [-beta(1-a), (1+beta)(1-a)]]."""
    return analyze_nag(alpha_i, beta).block()


def _classify(trace: float, product: float):
    """Eigen data of [[0,1],[-product, trace]] from the discriminant sign."""
    disc = trace * trace - 4.0 * product
    if abs(disc) <= DOUBLE_ROOT_TOL:
        lam = complex(0.5 * trace)
        return 0j, lam, lam, abs(0.5 * trace), DOUBLE_ROOT
    if disc > 0.0:
        g = math.sqrt(disc)
        lp, lm = 0.5 * (trace + g), 0.5 * (trace - g)
        return complex(g), complex(lp), complex(lm), 0.5 * (abs(trace) + g), REAL_PAIR
    g = math.sqrt(-disc)
    lp = complex(0.5 * trace, 0.5 * g)
    return complex(0.0, g), lp, lp.conjugate(), math.sqrt(product), COMPLEX_PAIR


def _companion(alpha_i: float, beta: float, trace: float, product: float) -> BlockSpectrum:
    """Spectrum of the block [[0, 1], [-product, trace]] at (alpha_i, beta)."""
    gamma, lp, lm, rho, regime = _classify(trace, product)
    return BlockSpectrum(
        alpha_i=alpha_i,
        beta=beta,
        beta_i=trace,
        product=product,
        gamma=gamma,
        lambda_plus=lp,
        lambda_minus=lm,
        rho=rho,
        regime=regime,
    )


def analyze_hbm(alpha_i: float, beta: float, *, strict: bool = True) -> BlockSpectrum:
    """Spectral analysis of the heavy-ball block at (alpha_i, beta)."""
    _check_beta(beta)
    _check_alpha_hbm(alpha_i, strict)
    return _companion(alpha_i, beta, 1.0 + beta - alpha_i, beta)


def analyze_nag(alpha_i: float, beta: float) -> BlockSpectrum:
    """Spectral analysis of the accelerated-gradient block at (alpha_i, beta)."""
    _check_beta(beta)
    if not alpha_i > 0.0:
        raise DomainError(f"alpha_i must be positive, got {alpha_i}")
    one_minus = 1.0 - alpha_i
    return _companion(alpha_i, beta, (1.0 + beta) * one_minus, beta * one_minus)


def eigvec_condition(spec: BlockSpectrum) -> float:
    """2-norm condition of the eigenvector basis S = [[1, 1], [l_+, l_-]].

    Computed from the closed-form eigenvalues mu_pm of S^H S:

    * real gamma > 0:  mu_pm = 1 + (t^2 + g^2)/4 +- sqrt(t^2 g^2 + 4(1+c)^2)/2
    * imaginary gamma: mu_pm = 1 + c +- |1 + l_+^2|

    with t the trace and c the determinant of the block. Returns +inf at the
    double root, where the eigenvector basis degenerates.
    """
    if spec.regime == DOUBLE_ROOT:
        return math.inf
    t, c = spec.beta_i, spec.product
    if spec.regime == REAL_PAIR:
        g2 = spec.gamma.real ** 2
        mid = 1.0 + 0.25 * (t * t + g2)
        half_span = 0.5 * math.sqrt(t * t * g2 + 4.0 * (1.0 + c) ** 2)
    else:
        mid = 1.0 + c
        half_span = abs(1.0 + spec.lambda_plus ** 2)
    mu_minus = mid - half_span
    if mu_minus <= 0.0:
        return math.inf
    return math.sqrt((mid + half_span) / mu_minus)


@dataclass(frozen=True, eq=False)
class SchurFactors:
    """Triangularization block = T R T^{-1} with unit lower-triangular T.

    T = [[1, 0], [l_+, 1]] and R = [[l_+, 1], [0, l_-]]; valid with or
    without a double eigenvalue (the double case is the Jordan form).
    """

    T: np.ndarray
    R: np.ndarray

    def t_inverse(self) -> np.ndarray:
        return np.array([[1.0, 0.0], [-self.T[1, 0], 1.0]], dtype=complex)

    def reconstruct(self) -> np.ndarray:
        return self.T @ self.R @ self.t_inverse()


def schur_factors(spec: BlockSpectrum) -> SchurFactors:
    lp, lm = spec.lambda_plus, spec.lambda_minus
    t = np.array([[1.0, 0.0], [lp, 1.0]], dtype=complex)
    r = np.array([[lp, 1.0], [0.0, lm]], dtype=complex)
    return SchurFactors(T=t, R=r)


def _powers(lam: complex, count: int) -> np.ndarray:
    """[lam^0, ..., lam^{count-1}] by cumulative products."""
    factors = np.full(count, lam, dtype=complex)
    factors[0] = 1.0
    return np.cumprod(factors)


def _cross_sum(lp: complex, lm: complex, k: int) -> complex:
    """sum_{l=0}^{k-1} lp^l * lm^{k-1-l}, by explicit summation.

    The quotient form (lp^k - lm^k)/(lp - lm) is avoided: it degenerates as
    the eigenvalues merge, while the sum is uniformly valid.
    """
    if k <= 0:
        return 0j
    return complex(np.sum(_powers(lp, k) * _powers(lm, k)[::-1]))


def r_power(spec: BlockSpectrum, k: int) -> np.ndarray:
    """R^k = [[l_+^k, sum_{l=0}^{k-1} l_+^l l_-^{k-1-l}], [0, l_-^k]]."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return np.eye(2, dtype=complex)
    lp, lm = spec.lambda_plus, spec.lambda_minus
    return np.array([[lp**k, _cross_sum(lp, lm, k)], [0.0, lm**k]], dtype=complex)


def block_power(spec: BlockSpectrum, k: int) -> np.ndarray:
    """Closed-form block^k from the cross sums of the eigenvalues.

    block^k = [[p, q], [r, s]] with

        p = -sum_{t=1}^{k-1} l_+^t l_-^{k-t}        q = sum_{l=0}^{k-1} l_+^l l_-^{k-1-l}
        r = -sum_{t=0}^{k-1} l_+^{t+1} l_-^{k-t}    s = sum_{t=0}^{k}   l_+^t l_-^{k-t}

    The entries are real for a real block; a residual imaginary part beyond
    1e-10 raises InternalConsistencyError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lp, lm = spec.lambda_plus, spec.lambda_minus
    prod = lp * lm
    q = _cross_sum(lp, lm, k)
    p = -prod * _cross_sum(lp, lm, k - 1)
    r = -prod * q
    s = _cross_sum(lp, lm, k + 1)
    entries = np.array([[p, q], [r, s]], dtype=complex)
    residual = float(np.abs(entries.imag).max())
    if residual > 1e-10:
        raise InternalConsistencyError(
            f"block power has imaginary residual {residual:.3e} at k={k}"
        )
    return entries.real.copy()


def power_norm_bound(spec: BlockSpectrum, k: int) -> float:
    """Transient bound 2 * rho^{k-1} * (k+1) on ||block^k||_2."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 2.0 * spec.rho ** (k - 1) * (k + 1)


def spectral_norm_2x2(m):
    """Exact largest singular value via the 2x2 Gram-matrix eigenvalues.

    ``m`` is one 2x2 matrix (the result is a float) or a stack (..., 2, 2)
    (the result is an array of shape ...). Each matrix is pre-scaled by its
    largest entry so the squared Gram entries cannot underflow for tiny
    inputs; a zero or non-finite matrix returns that largest entry.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a stack of them, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1))
    regular = (scale > 0.0) & np.isfinite(scale)
    safe = np.where(regular, scale, 1.0)
    a = np.where(regular[..., None, None], a, 0.0)
    # scale real/imag parts separately: complex division squares the
    # denominator internally and would underflow for denormal scales
    a = (a.real / safe[..., None, None]) + 1j * (a.imag / safe[..., None, None])
    g = np.einsum("...ij,...ik->...jk", a.conj(), a)  # A^H A
    g00, g11 = g[..., 0, 0].real, g[..., 1, 1].real
    rad = np.hypot(0.5 * (g00 - g11), np.abs(g[..., 0, 1]))
    lam_max = 0.5 * (g00 + g11) + rad
    norm = np.where(regular, safe * np.sqrt(np.maximum(lam_max, 0.0)), scale)
    return float(norm) if norm.ndim == 0 else norm


def gershgorin_norm_bound(m) -> float:
    """Row-circle bound sqrt(M^2 + M|b| + |b|^2) for a triangular 2x2 matrix,
    where M is the larger diagonal magnitude and b the off-diagonal entry."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if a[1, 0] == 0.0:
        b = a[0, 1]
    elif a[0, 1] == 0.0:
        b = a[1, 0]  # lower triangular: same singular values as the adjoint
    else:
        raise ValueError("matrix is not triangular")
    big = max(abs(a[0, 0]), abs(a[1, 1]))
    return math.sqrt(big**2 + big * abs(b) + abs(b) ** 2)


def double_root_beta(alpha_i: float) -> float:
    """The momentum (1 - sqrt(alpha_i))^2 placing the block at its double root."""
    if alpha_i <= 0.0:
        raise DomainError(f"alpha_i must be positive, got {alpha_i}")
    return (1.0 - math.sqrt(alpha_i)) ** 2


def snapped_double_root(alpha_i: float) -> tuple[float, float]:
    """A point on the double-root curve with exactly zero float discriminant.

    sqrt(alpha_i) is rounded to 20 fractional bits so alpha, beta, and the
    trace are all exact dyadics and (1 + beta - alpha)^2 - 4*beta evaluates
    to 0.0 in float64 -- no residual for naive eigensolvers to amplify.
    """
    if alpha_i <= 0.0:
        raise DomainError(f"alpha_i must be positive, got {alpha_i}")
    s = round(math.sqrt(alpha_i) * (1 << 20)) / (1 << 20)
    lam = 1.0 - s
    return s * s, lam * lam


def parameter_grid(
    alpha_step: float = 0.05,
    alpha_max: float = ALPHA_I_MAX,
    betas=None,
    include_double_root: bool = True,
) -> list[tuple[float, float]]:
    """(alpha_i, beta) sweep covering all three eigenvalue regimes.

    alpha_i runs over {alpha_step * j} up to alpha_max, beta over
    {0, 0.05, ..., 0.95} by default; with ``include_double_root`` snapped
    points on the double-root curve beta = (1 - sqrt(alpha_i))^2 are
    appended.
    """
    alphas = [alpha_step * j for j in range(1, int(round(alpha_max / alpha_step)) + 1)]
    if betas is None:
        betas = _GRID_BETAS
    grid = [(a, b) for a in alphas for b in betas]
    if include_double_root:
        grid.extend(snapped_double_root(a) for a in alphas)
    return grid
