import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab.complexity import (
    asymptotic_rates,
    sufficient_condition_chain,
    theorem1_budget,
    theorem2_budget,
)
from momlab.errors import PreconditionError
from momlab.methods import theorem1_params
from momlab.problems import EigenBounds
from momlab.spectral import analyze_hbm


def _hp_budget(scale: float, eps: float) -> int:
    """1 + ceil(scale * ln(2/eps)) at 50 digits, independent of float noise."""
    with mpmath.workdps(50):
        value = mpmath.mpf(scale) ** 0.5 * mpmath.log(2 / mpmath.mpf(eps))
        return int(1 + mpmath.ceil(value))


def test_theorem1_budget_cond100():
    report = theorem1_budget(100.0, 0.01)
    assert report.budget == 76
    assert report.budget == _hp_budget(200.0, 0.01)
    assert report.rho_asymptotic == pytest.approx(1.0 - math.sqrt(0.02), abs=1e-15)
    assert report.eps_max == pytest.approx(0.01)


def test_theorem1_budget_cond28_delta():
    report = theorem1_budget(28.0, 1.0 / 28.0)
    assert report.delta == pytest.approx(1.0 / math.sqrt(56.0), abs=1e-16)
    assert report.delta <= math.exp(-2.0)
    # just below the threshold the delta bound breaks
    assert 1.0 / math.sqrt(2.0 * 27.0) > math.exp(-2.0)


def test_theorem1_budget_preconditions():
    with pytest.raises(PreconditionError):
        theorem1_budget(100.0, 2.0)
    with pytest.raises(PreconditionError):
        theorem1_budget(100.0, 0.02)  # above 1/cond_bar
    with pytest.raises(PreconditionError):
        theorem1_budget(100.0, 0.0)
    with pytest.raises(PreconditionError):
        theorem1_budget(27.0, 1e-3)
    # override for exploration
    assert theorem1_budget(10.0, 0.2, strict=False).budget >= 1


def test_theorem2_budget_cond100():
    report = theorem2_budget(100.0, 0.01)
    assert report.budget == 107
    assert report.budget == _hp_budget(400.0, 0.01)
    assert report.rho_asymptotic == pytest.approx(0.9, abs=1e-15)
    # internals use the doubled condition bound
    assert report.delta == pytest.approx(1.0 / math.sqrt(400.0), abs=1e-16)


@settings(deadline=None, max_examples=300)
@given(cond=st.floats(28.0, 1e8), eps_factor=st.floats(1e-12, 1.0))
def test_theorem2_budget_is_theorem1_budget_at_twice_the_condition(cond, eps_factor):
    eps = eps_factor / cond
    report = dataclasses.asdict(theorem2_budget(cond, eps))
    # eps <= 1/c may exceed 1/(2c), so theorem 1's own preconditions are skipped
    doubled = dataclasses.asdict(theorem1_budget(2.0 * cond, eps, strict=False))
    assert report.pop("cond_bar") == cond and report.pop("eps_max") == 1.0 / cond
    del doubled["cond_bar"], doubled["eps_max"]
    assert report == doubled


def _next_to_integers(rule, cond):
    """eps = 2 exp(-N/s) and its two float neighbours for the first 399 N
    with eps <= 1/cond: s ln(2/eps) is an integer up to the rounding of eps."""
    scale = 2.0 * cond if rule == 1 else 4.0 * cond
    s = math.sqrt(scale)
    first = math.ceil(s * math.log(2.0 * cond))
    for n in range(first, first + 399):
        eps = 2.0 * math.exp(-n / s)
        for e in (math.nextafter(eps, 0.0), eps, math.nextafter(eps, 1.0)):
            if e <= 1.0 / cond:
                yield scale, e


@pytest.mark.parametrize("rule", [1, 2])
@pytest.mark.parametrize("cond", [28.0, 50.0, 1e2, 1e3, 1e4, 1e6])
def test_budget_is_the_exact_ceiling_next_to_an_integer(rule, cond):
    # a float product within rounding of an integer says nothing of the side
    # the real value lies on: at c = 28, eps = 0.031764623751553 it is
    # 31.000000000000004 and the real one 31.0000000000000038..., so K = 33
    budget_of = theorem1_budget if rule == 1 else theorem2_budget
    cases = list(_next_to_integers(rule, cond))
    assert len(cases) >= 3 * 399 - 1
    for scale, eps in cases:
        assert budget_of(cond, eps).budget == _hp_budget(scale, eps), eps


@settings(deadline=None, max_examples=200)
@given(cond=st.floats(28.0, 1e8), eps_power=st.floats(0.0, 1.0))
def test_budgets_are_the_exact_ceiling(cond, eps_power):
    eps = (1.0 / cond) * (1e-300 * cond) ** eps_power  # log-uniform in [1e-300, 1/cond]
    assert theorem1_budget(cond, eps).budget == _hp_budget(2.0 * cond, eps)
    assert theorem2_budget(cond, eps).budget == _hp_budget(4.0 * cond, eps)


def test_theorem2_budget_below_threshold():
    with pytest.raises(PreconditionError):
        theorem2_budget(27.0, 1e-3)


@pytest.mark.parametrize("cond", [100.0, 1e4])
@pytest.mark.parametrize("eps_factor", [1.0, 0.1])
def test_budget_ratio_is_sqrt_two(cond, eps_factor):
    eps = eps_factor / cond
    k1 = theorem1_budget(cond, eps).budget
    k2 = theorem2_budget(cond, eps).budget
    assert abs(k2 - (1.0 + math.sqrt(2.0) * (k1 - 1))) <= 1.0


def test_chain_report_failure_at_k1():
    report = sufficient_condition_chain(0.5, 1, 0.5)
    assert report.power_bound_value == pytest.approx(4.0)
    assert not report.power_bound_holds
    assert not report.bound2_holds


def test_chain_small_rho_case():
    # 2 * rho * 3 <= 1/2 exactly at rho = 1/12
    assert sufficient_condition_chain(1.0 / 12.0, 2, 0.5).power_bound_holds
    assert not sufficient_condition_chain(0.1, 2, 0.5).power_bound_holds


def test_chain_validation():
    with pytest.raises(ValueError):
        sufficient_condition_chain(1.0, 5, 0.1)
    with pytest.raises(ValueError):
        sufficient_condition_chain(0.5, 0, 0.1)
    with pytest.raises(ValueError):
        sufficient_condition_chain(0.5, 5, 0.0)


@settings(deadline=None, max_examples=200)
@given(
    rho=st.floats(0.01, 0.999),
    k=st.integers(1, 500),
    eps=st.floats(1e-8, 0.9),
)
def test_chain_implications(rho, k, eps):
    report = sufficient_condition_chain(rho, k, eps)
    if report.bound2_holds:
        assert report.bound1_holds
    if report.bound1_holds:
        assert report.power_bound_holds


def test_asymptotic_rates_cond100():
    rates = asymptotic_rates(100.0)
    assert rates.hbm == pytest.approx(1.0 - math.sqrt(0.02), abs=1e-15)
    assert rates.nag == pytest.approx(0.9, abs=1e-15)
    assert rates.polyak_optimal == pytest.approx(0.8, abs=1e-15)
    assert rates.nesterov_fvalue == pytest.approx(1.0 - math.sqrt(0.005), abs=1e-15)


def test_asymptotic_rates_ordering():
    for cond in np.geomspace(28.0, 1e6, 25):
        rates = asymptotic_rates(cond)
        assert rates.polyak_optimal < rates.hbm < rates.nag < rates.nesterov_fvalue
    far = asymptotic_rates(1e12)
    assert far.polyak_optimal > 1.0 - 1e-5


def test_asymptotic_rates_precondition():
    with pytest.raises(PreconditionError):
        asymptotic_rates(4.0)


@pytest.mark.parametrize("cond", [28.0, 100.0, 1000.0])
def test_per_block_norm_sufficiency(cond):
    # the scalar inequality the budget rests on, over the admissible step range
    params = theorem1_params(EigenBounds(1.0, cond))
    underbar = 2.0 / cond
    for eps in (1.0 / cond, 0.1 / cond):
        budget = theorem1_budget(cond, eps).budget
        for alpha_i in np.linspace(underbar, 2.0, 200):
            rho = analyze_hbm(alpha_i, params.beta).rho
            assert 2.0 * rho ** (budget - 1) * (budget + 1) <= eps


@pytest.mark.parametrize("cond", [28.0, 100.0, 1000.0])
def test_rho_asymptotic_matches_block_analysis(cond):
    params = theorem1_params(EigenBounds(1.0, cond))
    underbar = 2.0 / cond
    grid = np.concatenate([[underbar], np.linspace(underbar, 2.0, 400)])
    rhos = [analyze_hbm(a, params.beta).rho for a in grid]
    expected = 1.0 - math.sqrt(2.0 / cond)
    assert max(rhos) == pytest.approx(expected, abs=1e-12)
    # the maximum is already attained at the smallest admissible step
    assert rhos[0] == pytest.approx(max(rhos), abs=1e-12)


def test_crossover_index_inequality():
    # delta*(k_bar - 1) > ln(k_bar + 1) throughout the admissible delta range
    deltas = np.linspace(math.exp(-2.0) / 100.0, math.exp(-2.0), 100)
    for delta in deltas:
        k_bar = (2.0 / delta) * math.log(1.0 / delta) - 1.0
        assert delta * (k_bar - 1.0) > math.log(k_bar + 1.0)


def test_eps_bar_dominates_two_delta_squared():
    for cond in np.geomspace(28.0, 1e8, 30):
        report = theorem1_budget(cond, 1.0 / cond)
        assert report.eps_bar >= 2.0 * report.delta**2
        assert report.k_bar == pytest.approx(
            (2.0 / report.delta) * math.log(1.0 / report.delta) - 1.0
        )
