"""Explicit iteration budgets and the scalar inequality chain behind them.

For a condition-number bound c = cond_bar and a target reduction eps of the
Euclidean distance to the minimizer, the certified budgets are

    heavy-ball:  K = 1 + ceil(sqrt(2c) * ln(2/eps))   (theorem1_budget)
    accelerated: K = 1 + ceil(2*sqrt(c) * ln(2/eps))  (theorem2_budget)

valid for c >= 28 and 0 < eps <= 1/c, with the ceiling taken of the real
value at the given floats: it is decided exactly when the float product lies
within its rounding error of an integer. After K steps the averaged iterate
(x_{K-1} + x_K)/2 is within eps * ||x_0 - x*|| of the minimizer. The
accelerated rule is the heavy-ball rule with c replaced by 2c, reflecting
its halved step length, and ``theorem2_budget`` computes it that way: it
checks its preconditions at c and returns theorem 1's report at 2c, with
cond_bar and eps_max restated for c.

``sufficient_condition_chain`` evaluates the intermediate inequalities that
link the transient norm bound 2 rho^{k-1} (k+1) <= eps to the explicit
budget, and ``asymptotic_rates`` collects the per-step contraction factors
of the two methods next to the classical long-step optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import PreconditionError

__all__ = [
    "ComplexityReport",
    "ChainReport",
    "RateComparison",
    "theorem1_budget",
    "theorem2_budget",
    "sufficient_condition_chain",
    "asymptotic_rates",
    "MIN_COND_BAR",
]

# The budgets and the fixed-parameter rules are only certified for cond_bar >= 28.
MIN_COND_BAR = 28.0


def _exact_ceil(steps: float, scale: float, eps: float) -> int:
    """ceil(sqrt(scale) * ln(2/eps)) for the real values of the given floats;
    ``steps`` is that product in float64.

    math.sqrt, 2/eps and the product each round once, and math.log errs by
    under one ulp, so to first order (u = 2^-53) steps lies within 4u|steps| of
    sqrt(scale) times ln of the rounded quotient, itself within
    u sqrt(scale) of the real value. Farther than 8u(|steps| + sqrt(scale))
    from an integer, steps has the real ceiling. Nearer, the real value is
    taken at 40 digits with ``decimal``, whose sqrt and ln are correctly
    rounded. It is transcendental unless eps = 2 (then 0), so it is never an
    integer, and 40 digits miss its side only within about 1e-38 of one.
    """
    if abs(steps - round(steps)) > 4.0 * math.ulp(1.0) * (abs(steps) + math.sqrt(scale)):  # 8u
        return math.ceil(steps)
    from decimal import ROUND_CEILING, Decimal, localcontext

    with localcontext() as context:
        context.prec = 40
        real = Decimal(scale).sqrt() * (2 / Decimal(eps)).ln()
    return int(real.to_integral_value(rounding=ROUND_CEILING))


@dataclass(frozen=True)
class ComplexityReport:
    """Budget K plus the intermediate quantities of the derivation.

    delta is the per-step gap (1 - sqrt(beta))/2 implied by the parameter
    rule, k_bar = (2/delta) ln(1/delta) - 1 the crossover index past which
    the transient log term is dominated, eps_bar = 2 delta^2 e^{2 delta} the
    largest accuracy for which the simple budget formula is self-sufficient,
    and eps_max = 1/cond_bar the stated validity limit.
    """

    cond_bar: float
    eps: float
    budget: int
    delta: float
    k_bar: float
    eps_bar: float
    eps_max: float
    rho_asymptotic: float


def _check_budget_preconditions(cond_bar: float, eps: float, strict: bool):
    if not strict:
        return
    if cond_bar < MIN_COND_BAR:
        raise PreconditionError(
            f"cond_bar >= {MIN_COND_BAR:g} violated: cond_bar={cond_bar:g}",
            threshold=MIN_COND_BAR,
        )
    if not eps > 0.0:
        raise PreconditionError(f"eps > 0 violated: eps={eps:g}", threshold=0.0)
    if eps > 1.0 / cond_bar:
        raise PreconditionError(
            f"eps <= 1/cond_bar violated: eps={eps:g} > {1.0 / cond_bar:g}",
            threshold=1.0 / cond_bar,
        )


def theorem1_budget(cond_bar: float, eps: float, *, strict: bool = True) -> ComplexityReport:
    """Heavy-ball budget K = 1 + ceil(sqrt(2*cond_bar) * ln(2/eps)).

    ``strict=False`` skips the hypothesis checks for exploration outside the
    certified range.
    """
    _check_budget_preconditions(cond_bar, eps, strict)
    scale = 2.0 * cond_bar
    steps = math.sqrt(scale) * math.log(2.0 / eps)
    if not math.isfinite(steps):  # 2/eps overflows for eps below ~1.1e-308
        raise PreconditionError(f"budget sqrt(2c) ln(2/eps) is not finite at eps={eps:g}")
    budget = 1 + _exact_ceil(steps, scale, eps)
    delta = 1.0 / math.sqrt(2.0 * cond_bar)
    return ComplexityReport(
        cond_bar=cond_bar,
        eps=eps,
        budget=budget,
        delta=delta,
        k_bar=(2.0 / delta) * math.log(1.0 / delta) - 1.0,
        eps_bar=2.0 * delta * delta * math.exp(2.0 * delta),
        eps_max=1.0 / cond_bar,
        rho_asymptotic=1.0 - math.sqrt(2.0 / cond_bar),
    )


def theorem2_budget(cond_bar: float, eps: float, *, strict: bool = True) -> ComplexityReport:
    """Accelerated-gradient budget K = 1 + ceil(2*sqrt(cond_bar) * ln(2/eps)).

    This is the heavy-ball report at 2*cond_bar (the step length is halved):
    sqrt(2 * 2c) = 2 sqrt(c) exactly in float64. Only the preconditions, the
    reported cond_bar and eps_max refer to cond_bar itself.
    """
    _check_budget_preconditions(cond_bar, eps, strict)
    report = theorem1_budget(2.0 * cond_bar, eps, strict=False)
    return replace(report, cond_bar=cond_bar, eps_max=1.0 / cond_bar)


@dataclass(frozen=True)
class ChainReport:
    """Truth values of the inequality chain at one (rho, k, eps) point.

    ``bound2`` implies ``bound1`` implies ``power_bound_holds``:

    * power bound:  2 rho^{k-1} (k+1) <= eps
    * bound1:       (1-rho)(k-1) >= ln(2/eps) + ln(k+1)   (uses ln rho <= rho-1)
    * bound2:       delta(k-1) >= ln(2/eps)  and  delta(k-1) >= ln(k+1),
                    with delta = (1-rho)/2.
    """

    rho: float
    k: int
    eps: float
    delta: float
    power_bound_value: float
    power_bound_holds: bool
    bound1_holds: bool
    bound2_accuracy_holds: bool
    bound2_growth_holds: bool

    @property
    def bound2_holds(self) -> bool:
        return self.bound2_accuracy_holds and self.bound2_growth_holds


def sufficient_condition_chain(rho: float, k: int, eps: float) -> ChainReport:
    """Evaluate every inequality in the chain at one point."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    delta = 0.5 * (1.0 - rho)
    ln_acc = math.log(2.0 / eps)
    ln_growth = math.log(k + 1.0)
    value = 2.0 * rho ** (k - 1) * (k + 1)
    return ChainReport(
        rho=rho,
        k=k,
        eps=eps,
        delta=delta,
        power_bound_value=value,
        power_bound_holds=value <= eps,
        bound1_holds=(1.0 - rho) * (k - 1) >= ln_acc + ln_growth,
        bound2_accuracy_holds=delta * (k - 1) >= ln_acc,
        bound2_growth_holds=delta * (k - 1) >= ln_growth,
    )


@dataclass(frozen=True)
class RateComparison:
    """Asymptotic per-step contraction factors at a given cond_bar.

    ``polyak_optimal`` is the classical long-step heavy-ball rate
    1 - 2/sqrt(c); ``nesterov_fvalue`` the rate 1 - sqrt(1/(2c)) implied by
    the standard function-value guarantee translated to the H-norm.
    """

    hbm: float
    nag: float
    polyak_optimal: float
    nesterov_fvalue: float


def asymptotic_rates(cond_bar: float) -> RateComparison:
    if not cond_bar > 4.0:
        raise PreconditionError(
            f"cond_bar > 4 required, got {cond_bar:g}", threshold=4.0
        )
    return RateComparison(
        hbm=1.0 - math.sqrt(2.0 / cond_bar),
        nag=1.0 - math.sqrt(1.0 / cond_bar),
        polyak_optimal=1.0 - 2.0 / math.sqrt(cond_bar),
        nesterov_fvalue=1.0 - math.sqrt(1.0 / (2.0 * cond_bar)),
    )
