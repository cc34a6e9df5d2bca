"""The batched norm-bound and Schur sweeps: report bytes, failure lines and
the stacked power loop, each checked against a per-point reference."""

import math
import warnings

import numpy as np
import pytest

from momlab import verify
from momlab.spectral import (
    DOUBLE_ROOT,
    analyze_hbm,
    parameter_grid,
    schur_factors,
    spectral_norm_2x2,
)

from conftest import batched_sigma_max

# Last report lines of the per-point sweeps these replaced, on the default
# 420-point grid.
_GOLDEN_NORM_BOUND = {
    1: "norm-bound: grid=420 kmax=1 violations=0 max_norm_to_bound=0.567326 PASS",
    58: "norm-bound: grid=420 kmax=58 violations=0 max_norm_to_bound=0.721382 PASS",
    200: "norm-bound: grid=420 kmax=200 violations=0 max_norm_to_bound=0.730125 PASS",
}
_GOLDEN_SCHUR = (
    "schur: grid=420 kmax={kmax} violations=0 max_reconstruction=2.254e-16"
    " max_cond_T=2.559262 PASS"
)


@pytest.mark.parametrize("kmax", [1, 58, 200])
def test_sweep_reports_match_the_per_point_sweeps(kmax):
    norm_bound = verify.verify_norm_bound(kmax=kmax)
    assert norm_bound.passed and norm_bound.lines == [_GOLDEN_NORM_BOUND[kmax]]
    schur = verify.verify_schur(kmax=kmax)
    assert schur.passed and schur.lines == [_GOLDEN_SCHUR.format(kmax=kmax)]


def test_sweeps_over_no_points_report_an_empty_grid():
    assert verify.verify_norm_bound([], kmax=5).lines == [
        "norm-bound: grid=0 kmax=5 violations=0 max_norm_to_bound=0.000000 PASS"
    ]
    assert verify.verify_schur([], kmax=5).lines == [
        "schur: grid=0 kmax=5 violations=0 max_reconstruction=0.000e+00 max_cond_T=0.000000 PASS"
    ]


def test_sweeps_raise_no_warnings():
    # (1.0, 0.0) is nilpotent: rho = 0 and a zero second power, so the logs
    # of rho, of the norm and the margin all meet zeros and -inf
    grid = [(1.0, 0.0), (0.5, 0.3), (2.0, 0.95), (0.25, 0.25)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify.verify_norm_bound(grid, kmax=30).passed
        assert verify.verify_schur(grid, kmax=30).passed
        logs = verify.log_power_norms(analyze_hbm(1.0, 0.0).block(), 3)
    assert logs[0] == 0.0 and np.all(logs[1:] == -math.inf)


# Shifts that push the bounds past the true norms at some grid points.
_UPPER_SHIFT = -0.8
_LOWER_SHIFT = 3.0
_COND_T_MAX = 2.3
_RECONSTRUCTION_TOL = 1e-16


def _scalar_log_bound(rho, k, power, count):
    """log of 2 rho^{k+power} (k+count); a zero rho or zero factor gives -inf."""
    if k + count == 0 or (rho == 0.0 and k + power != 0):
        return -math.inf
    rho_term = 0.0 if k + power == 0 else (k + power) * math.log(rho)
    return math.log(2.0) + rho_term + math.log(k + count)


def _reference_fail_lines(grid, kmax):
    """The FAIL lines of both sweeps, checked one point and one k at a time."""
    lines = []
    for alpha_i, beta in grid:
        spec = analyze_hbm(alpha_i, beta)
        where = f"alpha_i={alpha_i:.6g} beta={beta:.6g}"
        log_norms = verify.log_power_norms(spec.block(), kmax)
        factors = schur_factors(spec)
        log_r_norms = verify.log_power_norms(factors.R, kmax)
        for k in range(1, kmax + 1):
            log_norm = log_norms[k - 1]
            log_bound = _scalar_log_bound(spec.rho, k, -1, 1) + _UPPER_SHIFT
            if log_norm > log_bound:
                lines.append(
                    f"norm-bound FAIL {where} k={k}"
                    f" log_norm={log_norm:.6e} log_bound={log_bound:.6e}"
                )
            floor = _scalar_log_bound(spec.rho, k, 1, -1) + _LOWER_SHIFT
            if spec.regime == DOUBLE_ROOT and k >= 2 and log_norm < floor:
                lines.append(f"tightness FAIL {where} k={k} log_norm={log_norm:.6e}")
            if log_r_norms[k - 1] > log_bound - math.log(2.0):
                lines.append(f"schur-rpower FAIL {where} k={k}")
        recon = float(np.abs(factors.reconstruct() - spec.block()).max())
        if recon > _RECONSTRUCTION_TOL:
            lines.append(f"schur-reconstruction FAIL {where} residual={recon:.3e}")
        cond_t = spectral_norm_2x2(factors.T) * spectral_norm_2x2(factors.t_inverse())
        if cond_t > _COND_T_MAX:
            lines.append(f"schur-cond FAIL {where} cond_T={cond_t:.6f}")
    return sorted(lines)


def test_forced_violations_match_a_per_point_reference(monkeypatch):
    upper, lower = verify._log_upper_bound, verify._log_tightness_lower
    monkeypatch.setattr(
        verify, "_log_upper_bound", lambda rho, kmax: upper(rho, kmax) + _UPPER_SHIFT
    )
    monkeypatch.setattr(
        verify, "_log_tightness_lower", lambda rho, kmax: lower(rho, kmax) + _LOWER_SHIFT
    )
    monkeypatch.setattr(verify, "_COND_T_MAX", _COND_T_MAX)
    monkeypatch.setattr(verify, "_RECONSTRUCTION_TOL", _RECONSTRUCTION_TOL)
    grid, kmax = parameter_grid(alpha_step=0.5), 12  # holds the nilpotent (1.0, 0.0)
    norm_bound = verify.verify_norm_bound(grid, kmax)
    schur = verify.verify_schur(grid, kmax)
    expected = _reference_fail_lines(grid, kmax)
    kinds = {line.split()[0] for line in expected}
    assert kinds == {
        "norm-bound", "tightness", "schur-rpower", "schur-reconstruction", "schur-cond"
    }
    assert sorted(norm_bound.lines[:-1] + schur.lines[:-1]) == expected
    assert norm_bound.lines[:-1] == sorted(norm_bound.lines[:-1])
    assert schur.lines[:-1] == sorted(schur.lines[:-1])
    for report in (norm_bound, schur):
        count = len(report.lines) - 1
        assert not report.passed
        assert f" violations={count} " in report.lines[-1] and report.lines[-1].endswith(" FAIL")


def _reference_log_norms(blocks, kmax):
    """Scale-tracked log ||block^k|| of a stack, norms from conftest's Gram
    formula rather than the library's."""
    count = blocks.shape[0]
    logs = np.full((count, kmax), -np.inf)
    power = np.broadcast_to(np.eye(2), blocks.shape).astype(blocks.dtype)
    log_scale = np.zeros(count)
    for k in range(kmax):
        power = power @ blocks
        peak = np.abs(power).reshape(count, -1).max(axis=1)
        alive = peak > 0.0
        safe = np.where(alive, peak, 1.0)
        power = power / safe[:, None, None]
        log_scale = log_scale + np.log(safe)
        logs[alive, k] = log_scale[alive] + np.log(batched_sigma_max(power[alive]))
    return logs


@pytest.fixture(scope="module")
def fine_stacks(fine_grid):
    specs = [analyze_hbm(a, b) for a, b in fine_grid]
    blocks = np.array([spec.block() for spec in specs])
    r_stack = np.array([schur_factors(spec).R for spec in specs])
    return blocks, r_stack


def _assert_same_logs(actual, expected, atol):
    assert np.array_equal(actual == -np.inf, expected == -np.inf)
    finite = np.isfinite(expected)
    assert np.isfinite(actual[finite]).all()
    assert np.abs(actual[finite] - expected[finite]).max() <= atol


@pytest.mark.parametrize("which", ["block", "R"])
def test_batched_log_power_norms_match_an_independent_reference(fine_stacks, which):
    stack = fine_stacks[0] if which == "block" else fine_stacks[1]
    kmax = 200
    logs = verify.log_power_norms(stack, kmax)
    assert logs.shape == (len(stack), kmax)
    expected = _reference_log_norms(stack, kmax)
    assert (expected == -np.inf).any()  # the nilpotent points
    _assert_same_logs(logs, expected, atol=1e-11)


def test_batched_log_power_norms_match_per_matrix_calls(fine_stacks):
    kmax = 60
    for stack in fine_stacks:
        sample = stack[::20]  # 105 points, point 980 is the nilpotent (1.0, 0.0)
        logs = verify.log_power_norms(sample.reshape(-1, 5, 2, 2), kmax).reshape(-1, kmax)
        single = np.array([verify.log_power_norms(m, kmax) for m in sample])
        assert single.shape == (105, kmax) and (single == -np.inf).any()
        _assert_same_logs(logs, single, atol=1e-12)
