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

The regime is read from one discriminant, t^2 - 4c with t^2 split exactly
(``_discriminant``): DOUBLE_ROOT where it lies within the rounding that
forming the block from (alpha_i, beta) can put into it (the ``slack`` of
``analyze_hbm``/``analyze_nag``), REAL_PAIR above that and COMPLEX_PAIR
below. |gamma| is the square root of the same value, and ``block_power``
branches on its exact sign.

The module also provides the eigenvector-basis condition number
cond(S) = mu_+ / |gamma| (infinite at the double root), the well-conditioned
Schur triangularization
T R T^{-1} with cond(T) <= 3, exact powers R^k (cumulative-product cross
sums, O(k)) and block^k (the Chebyshev closed form in real arithmetic, O(1),
kept in log magnitude so deep powers underflow to 0.0 rather than leave
rounding residue), and the transient norm bound ||block^k|| <= 2 rho^{k-1} (k+1).

The analysis, blocks, Schur factors, conditioning and ``double_root_beta`` take
one point (Python scalars out) or broadcastable arrays of points (arrays and
(..., 2, 2) stacks out) through one body; ``r_power``/``block_power`` take one.
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
    "parameter_grid",
    "double_root_beta",
    "snapped_double_root",
    "COMPLEX_PAIR",
    "REAL_PAIR",
    "DOUBLE_ROOT",
    "ALPHA_I_MAX",
]

COMPLEX_PAIR = "complex_pair"
REAL_PAIR = "real_pair"
DOUBLE_ROOT = "double_root"

# Unit roundoff of float64.
_U = 2.0**-53

# Admissible normalized step a_i = alpha * D_ii for the heavy-ball block.
ALPHA_I_MAX = 2.0

# Momentum axis {0, 0.05, ..., 0.95} of parameter_grid and the figure surfaces.
_GRID_BETAS = tuple(0.05 * l for l in range(20))


@dataclass(frozen=True)
class BlockSpectrum:
    """Spectral data of companion blocks [[0, 1], [-product, beta_i]], one or arrays.

    ``beta_i`` is the trace and ``product`` the determinant (= l_+ * l_-):
    beta for the heavy-ball block, beta*(1 - alpha_i) for the accelerated
    one. ``gamma`` follows the branch convention "non-negative real, or
    positive imaginary part". Array fields have the broadcast shape; alpha_i
    and beta are kept as given.
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
        b = np.zeros((*np.shape(self.beta_i), 2, 2))
        b[..., 0, 1], b[..., 1, 0], b[..., 1, 1] = 1.0, -np.asarray(self.product), self.beta_i
        return b


def _scalar(x):
    """A 0-d numpy result as the Python float, complex or str it holds."""
    return x.item() if np.ndim(x) == 0 else x


def _complex(re, im) -> np.ndarray:
    """re + i*im from equal-shape parts: complex arithmetic could flip signed zeros."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _first_outside(value, inside):
    """The first entry of ``value`` failing ``inside``, as a Python scalar, or None."""
    value = np.asarray(value)
    outside = value[~inside(value)]
    return outside[0].item() if outside.size else None


def _check(value, inside, what: str):
    bad = _first_outside(value, inside)
    if bad is not None:
        raise DomainError(f"{what}, got {bad}")


def hbm_block(alpha_i: float, beta: float, *, strict: bool = True) -> np.ndarray:
    """Heavy-ball block [[0, 1], [-beta, 1 + beta - alpha_i]].

    With ``strict=False`` an out-of-range alpha_i only warns, so slightly
    "too long" steps can be explored.
    """
    return analyze_hbm(alpha_i, beta, strict=strict).block()


def nag_block(alpha_i: float, beta: float) -> np.ndarray:
    """Accelerated-gradient block [[0, 1], [-beta(1-a), (1+beta)(1-a)]]."""
    return analyze_nag(alpha_i, beta).block()


_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_SPLIT_MAX = 2.0**500  # past this the split overflows; t^2 dwarfs its rounding


def _discriminant(t, d):
    """t^2 - 4d with t^2 = hi + lo split exactly (Dekker), so a discriminant
    near zero keeps its relative accuracy instead of an error of eps * t^2.

    One expression for Python floats (``block_power``'s path, which makes no
    numpy call) and for arrays elementwise (``_classify``, which holds the
    errstate for |t| >= 2^512); only the choice of the split value differs.
    A |t| >= _SPLIT_MAX or a non-finite t is not split: lo is 0.0 there.
    """
    if isinstance(t, float):
        ts = t if abs(t) < _SPLIT_MAX else 0.0
    else:
        ts = np.where(np.abs(t) < _SPLIT_MAX, t, 0.0)
    c = _SPLIT * ts
    th = c - (c - ts)
    tl = ts - th
    lo = ((th * th - ts * ts) + 2.0 * th * tl) + tl * tl
    return (t * t - 4.0 * d) + lo


def _classify(trace: np.ndarray, product: np.ndarray, slack):
    """gamma, l_+, l_-, rho, regime of [[0,1],[-product, trace]] from one
    discriminant: DOUBLE_ROOT where |disc| <= slack, REAL_PAIR where
    disc > slack, COMPLEX_PAIR otherwise, and |gamma| = sqrt|disc|. A disc
    that overflowed to inf is a real pair, even where the slack did too."""
    with np.errstate(over="ignore", invalid="ignore"):
        disc = _discriminant(trace, product)
        double = (np.abs(disc) <= slack) & np.isfinite(disc)
        real = ~double & (disc > 0.0)
    pair = ~(double | real)
    g = np.sqrt(np.abs(disc))
    half_trace = 0.5 * trace
    lp = _complex(np.where(real, 0.5 * (trace + g), half_trace), np.where(pair, 0.5 * g, 0.0))
    lm = _complex(np.where(real, 0.5 * (trace - g), half_trace), np.where(pair, -(0.5 * g), 0.0))
    # product > 0 wherever the complex-pair root is taken
    rho_pair = np.sqrt(np.maximum(product, 0.0))
    rho = np.where(double, np.abs(half_trace), np.where(real, 0.5 * (np.abs(trace) + g), rho_pair))
    regime = np.where(double, DOUBLE_ROOT, np.where(real, REAL_PAIR, COMPLEX_PAIR))
    return _complex(np.where(real, g, 0.0), np.where(pair, g, 0.0)), lp, lm, rho, regime


def _companion(alpha_i, beta, trace, product, slack) -> BlockSpectrum:
    """Spectrum of the blocks [[0, 1], [-product, trace]] at (alpha_i, beta)."""
    trace, product = np.broadcast_arrays(np.asarray(trace, float), np.asarray(product, float))
    eigen = (_scalar(x) for x in _classify(trace, product, slack))
    return BlockSpectrum(alpha_i, beta, _scalar(trace), _scalar(product), *eigen)


def analyze_hbm(alpha_i, beta, *, strict: bool = True) -> BlockSpectrum:
    """Spectral analysis of the heavy-ball block at floats or ndarrays (alpha_i, beta).

    The block is a double root where |t^2 - 4 beta| <= 8u(|t|(1 + beta + |alpha_i|)
    + beta), u = 2^-53. To first order, alpha_i and beta each known to one
    rounding and t = (1 + beta) - alpha_i rounded twice give
    |dt| <= u(1 + 2 beta + |alpha_i| + |t|) <= 3u(1 + beta + |alpha_i|) and
    |d(4 beta)| <= 4u beta, so t^2 - 4 beta moves by at most 2|t||dt| + 4u beta
    <= 6u|t|(1 + beta + |alpha_i|) + 4u beta; the bound rounds that up.
    """
    _check(beta, lambda b: (0.0 <= b) & (b < 1.0), "beta must lie in [0, 1)")
    bad = _first_outside(alpha_i, lambda a: (0.0 < a) & (a <= ALPHA_I_MAX))
    if bad is not None and strict:
        raise DomainError(f"alpha_i must lie in (0, {ALPHA_I_MAX:g}], got {bad}")
    if bad is not None:
        warnings.warn(
            f"alpha_i={bad} outside (0, {ALPHA_I_MAX:g}]; continuing (strict=False)",
            stacklevel=2,
        )
    trace = 1.0 + beta - alpha_i
    with np.errstate(over="ignore"):  # an |alpha_i| near the float64 limit (strict=False)
        slack = 8.0 * _U * (np.abs(trace) * (1.0 + beta + np.abs(alpha_i)) + beta)
    return _companion(alpha_i, beta, trace, beta, slack)


def analyze_nag(alpha_i, beta) -> BlockSpectrum:
    """Spectral analysis of the accelerated-gradient block at floats or ndarrays (alpha_i, beta).

    The block is a double root where |t^2 - 4d| <= 10u w (|t|(1 + beta) + 2 beta),
    u = 2^-53 and w = |1 - alpha_i| + alpha_i (1 for alpha_i <= 1). To first
    order, alpha_i and beta each known to one rounding and m = 1 - alpha_i,
    1 + beta, t = (1 + beta) m and d = beta m each rounded once give
    |dm| <= u w, |dt| <= 4u w (1 + beta) and |dd| <= 3u w beta, so t^2 - 4d
    moves by at most 2|t||dt| + 4|dd| <= 8u w (|t|(1 + beta) + 1.5 beta); the
    bound rounds that up.
    """
    _check(beta, lambda b: (0.0 <= b) & (b < 1.0), "beta must lie in [0, 1)")
    _check(alpha_i, lambda a: a > 0.0, "alpha_i must be positive")
    one_minus = 1.0 - alpha_i
    with np.errstate(over="ignore"):  # an alpha_i near the float64 limit
        trace = (1.0 + beta) * one_minus
        w = np.abs(one_minus) + alpha_i
        slack = 10.0 * _U * w * (np.abs(trace) * (1.0 + beta) + 2.0 * beta)
    return _companion(alpha_i, beta, trace, beta * one_minus, slack)


def eigvec_condition(spec: BlockSpectrum):
    """2-norm condition of the eigenvector basis S = [[1, 1], [l_+, l_-]].

    The eigenvalues mu_pm of S^H S multiply to |det S|^2 = |gamma|^2, so
    cond(S) = sqrt(mu_+ / mu_-) = mu_+ / |gamma|, with no cancelling mu_-.
    mu_+ = mid + half_span in closed form:

    * real gamma:  mid = 1 + (t^2 + g^2)/4, half_span = sqrt(t^2 g^2 + 4(1+c)^2)/2
    * otherwise:   mid = 1 + c,             half_span = |1 + l_+^2|

    with t the trace and c the determinant of the block. Returns +inf at the
    double root (gamma = 0), where the eigenvector basis degenerates. Squares
    are libm ``pow`` and |1 + l_+^2| is formed from real parts, as in CPython's
    float/complex ops.
    """
    t, c = np.asarray(spec.beta_i, dtype=float), np.asarray(spec.product, dtype=float)
    g2 = np.float_power(np.real(spec.gamma), 2)
    x, y = np.real(spec.lambda_plus), np.imag(spec.lambda_plus)
    real = np.asarray(spec.regime) == REAL_PAIR
    mid = np.where(real, 1.0 + 0.25 * (t * t + g2), 1.0 + c)
    half_span = np.where(
        real,
        0.5 * np.sqrt(t * t * g2 + 4.0 * np.float_power(1.0 + c, 2)),
        np.hypot(1.0 + (x * x - y * y), x * y + y * x),
    )
    with np.errstate(divide="ignore"):
        return _scalar((mid + half_span) / np.abs(spec.gamma))


@dataclass(frozen=True, eq=False)
class SchurFactors:
    """Triangularization block = T R T^{-1} with unit lower-triangular T.

    T = [[1, 0], [l_+, 1]] and R = [[l_+, 1], [0, l_-]]; valid with or
    without a double eigenvalue (the double case is the Jordan form).
    """

    T: np.ndarray
    R: np.ndarray

    def t_inverse(self) -> np.ndarray:
        return np.where(np.tri(2, k=-1, dtype=bool), -self.T, self.T)

    def reconstruct(self) -> np.ndarray:
        # a stacked @ equals the per-matrix product bitwise; an einsum does not
        return self.T @ self.R @ self.t_inverse()


def schur_factors(spec: BlockSpectrum) -> SchurFactors:
    lp, lm = spec.lambda_plus, spec.lambda_minus
    t = np.zeros((*np.shape(lp), 2, 2), dtype=complex)
    r = t.copy()
    t[..., 0, 0], t[..., 1, 0], t[..., 1, 1] = 1.0, lp, 1.0
    r[..., 0, 0], r[..., 0, 1], r[..., 1, 1] = lp, 1.0, lm
    return SchurFactors(T=t, R=r)


def _require_point(spec: BlockSpectrum, name: str) -> None:
    if isinstance(spec.beta_i, np.ndarray):
        raise ValueError(
            f"{name} takes one point, got a spectrum of shape {spec.beta_i.shape}"
        )


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
    """R^k = [[l_+^k, sum_{l=0}^{k-1} l_+^l l_-^{k-1-l}], [0, l_-^k]], in O(k)."""
    _require_point(spec, "r_power")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return np.eye(2, dtype=complex)
    lp, lm = spec.lambda_plus, spec.lambda_minus
    return np.array([[lp**k, _cross_sum(lp, lm, k)], [0.0, lm**k]], dtype=complex)


# lambda_+ + lambda_- and lambda_+ * lambda_- must match the trace and the
# determinant to this tolerance, relative to (1 + |l_+| + |l_-|)^2, for the
# spectrum to belong to its block. Rounding stays far below it, and so does
# the double-root snap l_+ = l_- = t/2, which moves the product by
# |t^2 - 4d| / 4 <= slack / 4, under 5e-15 on the admissible domain.
_EIGEN_TOL = 1e-10

def _log(x: float) -> float:
    """log x for x >= 0, with log 0 = -inf."""
    return math.log(x) if x > 0.0 else -math.inf


def _cross_sum_logs(t: float, d: float, js) -> list[tuple[float, float]]:
    """(sign, log |S_j|) for each j >= 0 in ``js``, where S_j is the cross sum
    sum_{l<j} l_+^l l_-^{j-1-l} of the block [[0, 1], [-d, t]]: S_0 = 0, S_1 = 1.

    This is the Chebyshev form d^{(j-1)/2} U_{j-1}(t / 2 sqrt d). With the
    symmetry U_{j-1}(-x) = (-1)^{j-1} U_{j-1}(x) it reads
    S_j = sign(t)^{j-1} base^{j-1} ratio_j, by the sign of the discriminant:

    * d = 0:         base |t|, ratio 1;
    * zero:          base |t|/2, ratio j (the double root);
    * negative:      base sqrt d, ratio sin(j theta) / sin(theta) with
                     theta = arg(|t| + i sqrt(-disc)) in (0, pi/2];
    * positive:      base the larger root magnitude, ratio (1 - q^j)/(1 - q)
                     with q = sign(d) e^{-2 psi} the root ratio, through
                     expm1/log1p so nothing cancels as psi -> 0.

    |ratio_j| <= j, so only base^{j-1} can leave the float64 range, and it is
    kept as a logarithm.
    """
    disc = _discriminant(t, d)
    at = abs(t)
    if d == 0.0:
        log_base = _log(at)
        ratio = lambda j: 1.0
    elif disc == 0.0:
        log_base = math.log(0.5 * at)
        ratio = lambda j: float(j)
    elif disc < 0.0:
        log_base = 0.5 * math.log(d)
        theta = math.atan2(math.sqrt(-disc), at)
        sin_theta = math.sin(theta)
        ratio = lambda j: math.sin(j * theta) / sin_theta
    else:
        g = math.sqrt(disc)
        big = 0.5 * (at + g)
        small = abs(d) / big
        # big - small is g for roots of one sign (d > 0), |t| for d < 0
        two_psi = math.log1p((g if d > 0.0 else at) / small)
        log_base = math.log(big)
        if d > 0.0:
            ratio = lambda j: math.expm1(-j * two_psi) / math.expm1(-two_psi)
        else:
            def ratio(j):
                head = -math.expm1(-j * two_psi) if j % 2 == 0 else 1.0 + math.exp(-j * two_psi)
                return head / (1.0 + math.exp(-two_psi))

    sign = math.copysign(1.0, t)
    out = []
    for j in js:
        if j <= 1:
            out.append((1.0, 0.0 if j else -math.inf))
            continue
        r = ratio(j)
        out.append(((sign if j % 2 == 0 else 1.0) * math.copysign(1.0, r), (j - 1) * log_base + _log(abs(r))))
    return out


def _signed_exp(sign: float, log: float) -> float:
    """sign * e^log, rounding to 0.0 below the subnormals and to +-inf above
    float64 (``math.exp`` raises there)."""
    try:
        return sign * math.exp(log)
    except OverflowError:
        return sign * math.inf


def block_power(spec: BlockSpectrum, k: int) -> np.ndarray:
    """Closed-form block^k in real arithmetic, at the same cost for every k.

    With trace t, determinant d and the cross sums
    S_j = sum_{l=0}^{j-1} l_+^l l_-^{j-1-l},

        block^k = [[-d S_{k-1}, S_k], [-d S_k, S_{k+1}]].

    Each S_j takes the Chebyshev form of its regime (``_cross_sum_logs``),
    decided by a discriminant with an exact t^2, so a DOUBLE_ROOT spectrum
    whose discriminant is not exactly zero still gets its true power. Entries
    are kept as a sign and a logarithm and exponentiated only at the end: an
    exact entry below the subnormal range comes back as 0.0, one above
    float64 as a signed inf, never NaN. A spectrum whose eigenvalue sum or
    product misses the trace or determinant (beyond _EIGEN_TOL) raises
    InternalConsistencyError.
    """
    _require_point(spec, "block_power")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    t, d = spec.beta_i, spec.product
    lp, lm = spec.lambda_plus, spec.lambda_minus
    scale = 1.0 + abs(lp) + abs(lm)
    residual = max(abs(lp + lm - t), abs(lp * lm - d))
    if residual > _EIGEN_TOL * scale * scale:
        raise InternalConsistencyError(
            f"eigenvalues {lp}, {lm} miss trace {t} / determinant {d} by {residual:.3e}"
        )
    (s0, before), (s1, at_k), (s2, after) = _cross_sum_logs(t, d, (k - 1, k, k + 1))
    neg = -math.copysign(1.0, d)
    log_d = _log(abs(d))
    return np.array([
        [_signed_exp(neg * s0, log_d + before), _signed_exp(s1, at_k)],
        [_signed_exp(neg * s1, log_d + at_k), _signed_exp(s2, after)],
    ])


def power_norm_bound(spec: BlockSpectrum, k: int) -> float:
    """Transient bound 2 * rho^{k-1} * (k+1) on ||block^k||_2."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 2.0 * spec.rho ** (k - 1) * (k + 1)


def _gram_sigma_max(a, b, c, d):
    """Largest singular value of [[a, b], [c, d]], entrywise over arrays of one
    dtype: sqrt of the larger eigenvalue of the Gram matrix A^H A.

    Real entries stay real. Complex ones are taken apart into real products,
    since numpy's complex multiply may fuse them and round differently. The
    squares are formed unguarded, so entries should be of order one.
    """
    if np.iscomplexobj(a):
        (ar, ai), (br, bi), (cr, ci), (dr, di) = ((z.real, z.imag) for z in (a, b, c, d))
        g00 = (ar * ar + ai * ai) + (cr * cr + ci * ci)
        g11 = (br * br + bi * bi) + (dr * dr + di * di)
        g01 = _complex(
            (ar * br + ai * bi) + (cr * dr + ci * di), (ar * bi - ai * br) + (cr * di - ci * dr)
        )
    else:
        g00, g11, g01 = a * a + c * c, b * b + d * d, a * b + c * d
    rad = np.hypot(0.5 * (g00 - g11), np.abs(g01))
    return np.sqrt(np.maximum(0.5 * (g00 + g11) + rad, 0.0))


def spectral_norm_2x2(m):
    """Exact largest singular value via the 2x2 Gram-matrix eigenvalues.

    ``m`` is one 2x2 matrix (the result is a float) or a stack (..., 2, 2)
    (the result is an array of shape ...). Each matrix is pre-scaled by its
    largest entry so the squared Gram entries cannot underflow for tiny
    inputs; a zero or non-finite matrix returns that largest entry.
    """
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a stack of them, got shape {a.shape}")
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    scale = np.abs(a).max(axis=(-2, -1))
    regular = (scale > 0.0) & np.isfinite(scale)
    safe = np.where(regular, scale, 1.0)
    a = np.where(regular[..., None, None], a, 0.0)
    if np.iscomplexobj(a):
        # scale real/imag parts separately: complex division squares the
        # denominator internally and would underflow for denormal scales
        a = (a.real / safe[..., None, None]) + 1j * (a.imag / safe[..., None, None])
    else:
        a = a / safe[..., None, None]
    sigma = _gram_sigma_max(a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1])
    return _scalar(np.where(regular, safe * sigma, scale))


def double_root_beta(alpha_i):
    """The momentum (1 - sqrt(alpha_i))^2 placing the block at its double root."""
    _check(alpha_i, lambda a: ~(a <= 0.0), "alpha_i must be positive")  # NaN passes
    return _scalar(np.float_power(1.0 - np.sqrt(alpha_i), 2))


def snapped_double_root(alpha_i: float) -> tuple[float, float]:
    """A point on the double-root curve with exactly zero float discriminant.

    sqrt(alpha_i) is rounded to 20 fractional bits so alpha, beta, and the
    trace are all exact dyadics and (1 + beta - alpha)^2 - 4*beta evaluates
    to 0.0 in float64 -- no residual for naive eigensolvers to amplify.
    """
    _check(alpha_i, lambda a: ~(a <= 0.0), "alpha_i must be positive")
    s = round(math.sqrt(alpha_i) * (1 << 20)) / (1 << 20)
    lam = 1.0 - s
    return s * s, lam * lam


# Guard against floating noise next to an integer before taking the floor.
_INTEGER_GUARD = 1e-9


def parameter_grid(alpha_step: float = 0.05) -> list[tuple[float, float]]:
    """(alpha_i, beta) sweep covering all three eigenvalue regimes.

    alpha_i runs over {alpha_step * j} up to ALPHA_I_MAX (never past it), beta
    over {0, 0.05, ..., 0.95}; the snapped points on the double-root curve
    beta = (1 - sqrt(alpha_i))^2 are appended.
    """
    count = math.floor(ALPHA_I_MAX / alpha_step + _INTEGER_GUARD)
    alphas = [alpha_step * j for j in range(1, count + 1)]
    grid = [(a, b) for a in alphas for b in _GRID_BETAS]
    grid.extend(snapped_double_root(a) for a in alphas)
    return grid
