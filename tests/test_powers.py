"""Exact block powers against a 40-digit oracle.

``block_power`` is checked against B^k formed by repeated squaring in
mpmath from the float trace t and determinant d, so the reference is the
exact power of the very block the library holds. ``r_power``'s cumulative
product cross sums are the independent second route: its [0, 1] entry is
S_k, and together with S_{k-1}, S_{k+1} it rebuilds the cumulative-product
block power the library used before the closed form.
"""

import math

import mpmath
import numpy as np
import pytest

from momlab import spectral
from momlab.errors import InternalConsistencyError
from momlab.spectral import (
    analyze_hbm,
    analyze_nag,
    block_power,
    double_root_beta,
    parameter_grid,
    r_power,
)

KS = (1, 2, 10, 100, 1_000, 3_000, 10_000)
DIGITS = 40
# Relative to the exact norm; the other route's own error may set a looser one.
ORACLE_TOL = 1e-11
# One unit of the float64 subnormal spacing: below it nothing is representable.
SUBNORMAL_UNIT = mpmath.mpf(2) ** -1074


def exact_powers(t, d, ks):
    """{k: (B^k)_{00}, _{01}, _{10}, _{11}} of [[0, 1], [-d, t]] to DIGITS digits,
    from the squares B^{2^i} and the binary digits of each k."""
    with mpmath.workdps(DIGITS):
        def mul(a, b):
            return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                    a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])

        squares = [(mpmath.mpf(0), mpmath.mpf(1), -mpmath.mpf(d), mpmath.mpf(t))]
        for _ in range(max(ks).bit_length() - 1):
            squares.append(mul(squares[-1], squares[-1]))
        out = {}
        for k in ks:
            factors = [squares[i] for i in range(k.bit_length()) if k >> i & 1]
            acc = factors[0]
            for f in factors[1:]:
                acc = mul(acc, f)
            out[k] = acc
        return out


def largest(exact):
    return max(abs(x) for x in exact)


def oracle_error(got, exact, norm=None):
    """Worst entry distance of ``got`` from ``exact`` beyond one subnormal unit,
    relative to ``norm``, by default the largest exact entry (inf for a
    non-finite entry)."""
    with mpmath.workdps(DIGITS):
        norm = largest(exact) if norm is None else norm
        worst = mpmath.mpf(0)
        for g, x in zip(np.ravel(got), exact):
            if not np.isfinite(g):
                return math.inf
            worst = max(worst, abs(mpmath.mpc(complex(g)) - x) - SUBNORMAL_UNIT)
        return float(worst / norm) if norm else (0.0 if worst <= 0 else math.inf)


def cumprod_power(spec, k):
    """block^k as the cumulative-product cross sums of r_power give it."""
    prod = spec.lambda_plus * spec.lambda_minus
    q = r_power(spec, k)[0, 1]
    entries = [-prod * r_power(spec, k - 1)[0, 1], q, -prod * q, r_power(spec, k + 1)[0, 1]]
    return np.array(entries).real


def check_against_oracle(spec):
    """block_power within ORACLE_TOL of the oracle at every k in KS, or no
    worse than the cumulative product; its S_k agrees with r_power's wherever
    that route is itself within ORACLE_TOL."""
    exact = exact_powers(spec.beta_i, spec.product, KS)
    for k in KS:
        got = block_power(spec, k)
        assert got.shape == (2, 2) and got.dtype == np.float64
        err = oracle_error(got, exact[k])
        reference = mpmath.mpc(complex(r_power(spec, k)[0, 1]))
        gap = oracle_error([got[0, 1]], [reference], largest(exact[k]))
        if err <= ORACLE_TOL and gap <= 2 * ORACLE_TOL:
            continue
        old = oracle_error(cumprod_power(spec, k), exact[k])
        where = (spec.alpha_i, spec.beta, k, err, gap, old)
        assert err <= max(ORACLE_TOL, old), where
        # otherwise the cumulative product is off (merged or underflowed roots)
        assert gap <= 2 * ORACLE_TOL or old > ORACLE_TOL, where


@pytest.mark.parametrize("analyze", [analyze_hbm, analyze_nag], ids=["hbm", "nag"])
def test_block_power_matches_the_oracle_on_the_grid(analyze):
    for alpha_i, beta in parameter_grid():
        spec = analyze(alpha_i, beta)
        if spec.rho < 1.0:
            check_against_oracle(spec)


@pytest.mark.parametrize("delta", [0.0, 1e-10, 1e-8, 1e-6])
def test_block_power_matches_the_oracle_next_to_the_double_root(delta):
    # discriminants from about 1e-6 down to rounding (delta = 0), on both
    # sides of the double-root slack and of zero
    for j in range(1, 41):
        alpha_i = 0.05 * j
        for side in {1.0 + delta, 1.0 - delta}:
            beta = double_root_beta(alpha_i) * side
            if 0.0 <= beta < 1.0:
                check_against_oracle(analyze_hbm(alpha_i, beta))


@pytest.mark.parametrize("alpha_i,beta,analyze", [
    (1.1, 0.1, analyze_hbm),   # trace 1 + 0.1 - 1.1 cancels to rounding
    (0.5, 0.0, analyze_hbm),   # beta = 0: determinant 0
    (2.0, 0.0, analyze_hbm),   # determinant 0 with trace -1
    (1.0, 0.5, analyze_nag),   # alpha_i = 1: the nilpotent block [[0, 1], [0, 0]]
    (1.0, 0.0, analyze_nag),
])
def test_block_power_matches_the_oracle_at_cancelling_and_nilpotent_points(alpha_i, beta, analyze):
    check_against_oracle(analyze(alpha_i, beta))


def test_nilpotent_block_powers_vanish():
    spec = analyze_nag(1.0, 0.5)
    assert np.array_equal(block_power(spec, 1), [[0.0, 1.0], [0.0, 0.0]])
    for k in (2, 3, 10**6):
        assert not block_power(spec, k).any()


def test_deep_powers_underflow_to_exact_zeros():
    # the exact norm is about e^-767.5, below the smallest subnormal (e^-744.4)
    spec = analyze_hbm(0.05, 0.3)
    exact = exact_powers(spec.beta_i, spec.product, (10_000,))[10_000]
    assert largest(exact) < SUBNORMAL_UNIT / 2
    assert not block_power(spec, 10_000).any()


def test_growing_powers_match_the_oracle():
    spec = analyze_nag(1.9, 0.5)  # rho ~ 1.63
    exact = exact_powers(spec.beta_i, spec.product, (1_000,))[1_000]
    got = block_power(spec, 1_000)
    assert got[0, 1] == pytest.approx(-1.03e211, rel=1e-3)
    assert oracle_error(got, exact) <= ORACLE_TOL


def test_overflowing_powers_are_signed_infinities():
    spec = analyze_nag(2.0, 0.9)  # exact entries up to 1.8e360
    exact = exact_powers(spec.beta_i, spec.product, (1_000,))[1_000]
    got = block_power(spec, 1_000)
    assert not np.isnan(got).any()
    assert np.isinf(got).all()
    assert [math.copysign(1.0, g) for g in got.ravel()] == [float(mpmath.sign(x)) for x in exact]
    assert got[0, 1] == -math.inf  # exact -7.8e359


def test_powers_take_one_point():
    spec = analyze_hbm(np.array([0.3, 0.5]), 0.6)
    for power in (block_power, r_power):
        with pytest.raises(ValueError, match="takes one point"):
            power(spec, 5)


def test_block_power_does_not_use_the_cumulative_products(monkeypatch):
    def refuse(lam, count):
        raise AssertionError("O(k) cumulative product")

    monkeypatch.setattr(spectral, "_powers", refuse)
    spec = analyze_hbm(0.3, 0.6)
    assert np.isfinite(block_power(spec, 10**6)).all()
    with pytest.raises(AssertionError, match="cumulative product"):
        r_power(spec, 5)


def test_block_power_guard_tolerates_the_double_root_snap():
    # DOUBLE_ROOT specs carry l_+ = l_- = t/2, so l_+ l_- misses d by up to
    # slack / 4; the guard must let that through
    alpha_i = 0.36
    spec = analyze_hbm(alpha_i, double_root_beta(alpha_i))
    assert spec.regime == spectral.DOUBLE_ROOT
    assert spec.lambda_plus * spec.lambda_minus != spec.product
    block_power(spec, 10)
    with pytest.raises(InternalConsistencyError):
        block_power(spectral.BlockSpectrum(**{**vars(spec), "lambda_minus": spec.lambda_minus + 1e-3}), 10)
