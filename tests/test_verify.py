"""The stacked theorem checks and the batched norm-bound and Schur sweeps:
report bytes, failure lines and the stacked power loop, each checked
against a per-cell or per-point reference."""

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab import verify
from momlab.complexity import theorem1_budget
from momlab.errors import MAX_RUN_VALUES, ConfigError
from momlab.seeding import unit_start
from momlab.spectral import (
    DOUBLE_ROOT,
    analyze_hbm,
    parameter_grid,
    schur_factors,
    spectral_norm_2x2,
)

from conftest import (
    batched_sigma_max,
    reference_log_power_norms,
    reference_spectral_norm_2x2,
    reference_theorem_lines,
)

# Last report lines of the per-point sweeps these replaced, on the default
# 420-point grid.
_GOLDEN_NORM_BOUND = {
    1: "norm-bound: grid=420 kmax=1 violations=0 max_norm_to_bound=0.567326 PASS",
    2: "norm-bound: grid=420 kmax=2 violations=0 max_norm_to_bound=0.627503 PASS",
    3: "norm-bound: grid=420 kmax=3 violations=0 max_norm_to_bound=0.627503 PASS",
    57: "norm-bound: grid=420 kmax=57 violations=0 max_norm_to_bound=0.721169 PASS",
    58: "norm-bound: grid=420 kmax=58 violations=0 max_norm_to_bound=0.721382 PASS",
    59: "norm-bound: grid=420 kmax=59 violations=0 max_norm_to_bound=0.721588 PASS",
    60: "norm-bound: grid=420 kmax=60 violations=0 max_norm_to_bound=0.721787 PASS",
    200: "norm-bound: grid=420 kmax=200 violations=0 max_norm_to_bound=0.730125 PASS",
}
_GOLDEN_SCHUR = (
    "schur: grid=420 kmax={kmax} violations=0 max_reconstruction=2.254e-16"
    " max_cond_T=2.559262 PASS"
)


@pytest.mark.parametrize("kmax", sorted(_GOLDEN_NORM_BOUND))
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


@pytest.mark.parametrize("which", ["block", "R"])
def test_entrywise_log_power_norms_match_the_einsum_loop(fine_stacks, which):
    stack = fine_stacks[0] if which == "block" else fine_stacks[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the nilpotent (1.0, 0.0) is in the grid
        logs = verify.log_power_norms(stack, 200)
    expected = reference_log_power_norms(stack, 200)
    assert (expected == -np.inf).any()
    _assert_same_logs(logs, expected, atol=1e-12)


def _random_real_matrices(count, seed):
    """Random 2x2 matrices at scales 1e-300..1e300, with zero, subnormal and
    non-finite ones mixed in."""
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((count, 2, 2)) * 10.0 ** rng.uniform(-300, 300, (count, 1, 1))
    mats[::7] = rng.standard_normal((len(mats[::7]), 2, 2))
    mats[::11, 1, 0] = 0.0
    mats[::13] *= 1e-310
    mats[5::1000] = 0.0
    mats[6::1000, 0, 1] = np.inf
    mats[7::1000, 1, 1] = np.nan
    return mats


def _same_bits(actual, expected):
    return np.array_equal(np.asarray(actual).view(np.int64), np.asarray(expected).view(np.int64))


def test_real_spectral_norm_2x2_is_the_former_norm_bit_for_bit(fine_stacks):
    mats = _random_real_matrices(100_000, seed=3)
    with np.errstate(invalid="ignore"):  # the inf and nan matrices
        assert _same_bits(spectral_norm_2x2(mats), reference_spectral_norm_2x2(mats))
    blocks = fine_stacks[0]
    assert _same_bits(spectral_norm_2x2(blocks), reference_spectral_norm_2x2(blocks))
    for mat in mats[:50]:
        norm = spectral_norm_2x2(mat)
        assert type(norm) is float and _same_bits(norm, reference_spectral_norm_2x2(mat))


def test_complex_spectral_norm_2x2_is_within_one_ulp_of_the_former_norm(fine_grid):
    factors = schur_factors(analyze_hbm(*np.array(fine_grid).T))
    rng = np.random.default_rng(4)
    scaled = (rng.standard_normal((20_000, 2, 2)) + 1j * rng.standard_normal((20_000, 2, 2)))
    scaled *= 10.0 ** rng.uniform(-300, 300, (20_000, 1, 1))
    for mats in (factors.T, factors.t_inverse(), factors.R, scaled):
        ulps = np.abs(
            spectral_norm_2x2(mats).view(np.int64)
            - reference_spectral_norm_2x2(mats).view(np.int64)
        )
        assert ulps.max() <= 1


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize(
    "conds, eps_values, num_seeds, master_seed, budget_override",
    [
        ([100.0, 28.0], [0.01, 0.001], 4, 9, None),
        ([100.0, 28.0, 100.0, 28.0], [0.001, 0.01], 3, 5, None),  # duplicate conds
        ([28.0, 1000.0, 3000.0], [3e-4, 1e-6, 1e-12], 2, 1, None),
        ([8600.0, 28.0, 450.0], [1.0 / 8600.0], 1, 0, None),
        ([100.0, 28.0, 1000.0], [1e-3, 1e-4], 2, 3, 3),  # every cell fails
        ([28.0, 100.0], [0.01], 2, 4, 1),
        ([28.0], [1e-80], 1, 0, None),  # the ratio underflows to 0: UNDERFLOW
    ],
)
def test_stacked_theorem_run_matches_the_per_cell_runs(
    which, conds, eps_values, num_seeds, master_seed, budget_override
):
    report = verify.verify_theorem(
        which, conds, eps_values, num_seeds, master_seed, budget_override
    )
    expected = reference_theorem_lines(
        which, conds, eps_values, num_seeds, master_seed, budget_override
    )
    assert report.lines == expected
    assert report.passed == expected[-1].startswith(
        f"thm{which}: {len(expected) - 1}/{len(expected) - 1} "
    )


def test_a_theorem_cell_whose_ratio_underflowed_to_zero_does_not_pass():
    # at eps = 1e-60 the ratio is tiny but normal; at 1e-80 (K = 1385) the
    # 2-norm of error coordinates near 1e-232 squares to 0
    tiny = verify.verify_theorem(1, [28.0], [1e-60], 3)
    assert tiny.passed and tiny.lines[-1] == "thm1: 3/3 cells passed"
    assert tiny.lines[0].startswith("thm1 cond=28 eps=1e-60 seed=0 K=1041 ratio=2.642111e-139 ")
    mixed = verify.verify_theorem(1, [28.0], [1e-3, 1e-80], 2)
    assert not mixed.passed
    assert [line.rsplit(" ", 1)[1] for line in mixed.lines[:-1]] == [
        "UNDERFLOW", "UNDERFLOW", "PASS", "PASS"
    ]
    assert mixed.lines[0].endswith("K=1385 ratio=0.000000e+00 UNDERFLOW")
    assert mixed.lines[-1] == "thm1: 2/4 cells passed (2 underflowed)"


def test_stacked_theorem_run_makes_one_problem_and_one_run(monkeypatch):
    calls = []
    for name in ("run", "make_diagonal_problem"):
        original = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda *args, f=original, n=name: calls.append(n) or f(*args)
        )
    report = verify.verify_theorem(2, [28.0, 100.0, 1000.0], [1e-3, 1e-4], 3)
    assert report.passed and len(report.lines) == 3 * 2 * 3 + 1
    assert calls == ["make_diagonal_problem", "run"]


# zeros, subnormals, the square's underflow and overflow edges, and overflow
_EDGE_COORDS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-162, 1.3407807929942596e154,
     -1.3407807929942597e154, 1e308, 1.7976931348623157e308]
)
_COORD = st.one_of(_EDGE_COORDS, st.floats(allow_nan=False, allow_infinity=False, width=64))


@settings(deadline=None, max_examples=200)
@given(
    rows=st.lists(st.tuples(_COORD, _COORD), max_size=12),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-1080, 1030),
)
def test_batched_row_norms_are_numpys_norm_of_each_row(rows, seed, exponent):
    # plus 32 rows of full random mantissas at scale 2**exponent, where a
    # plain sum of squares rounds differently from the dot kernel
    with np.errstate(over="ignore", under="ignore"):
        scaled = np.ldexp(np.random.default_rng(seed).standard_normal((32, 2)), exponent)
        v = np.concatenate([np.array(rows).reshape(-1, 2), scaled])
        expected = np.array([np.linalg.norm(row) for row in v])
        # contiguous rows, a (2, rows) stack read transposed, and a 3-D stack
        for stack in (v, np.array(v.T).T, v[:, None, :]):
            got = verify._row_norms(stack).reshape(-1)
            assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_theorem_readout_never_copies_the_history():
    conds, eps, seeds = [32.0, 100.0, 500.0, 3000.0, 8500.0], 1.0 / 8500.0, 10
    verify.verify_theorem(1, conds, [eps], seeds)  # one-time imports and caches
    tracemalloc.start()
    try:
        report = verify.verify_theorem(1, conds, [eps], seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    # the (K+1, seeds, 2m) float64 history of the one stacked run, 1.0 MB
    history = (theorem1_budget(8500.0, eps).budget + 1) * seeds * 2 * len(conds) * 8
    assert peak <= 1.05 * history + 64 * 1024, (peak, history)


def _refuse_allocation(monkeypatch, names):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the refusal must come before any problem or run is built")

    for name in names:
        monkeypatch.setattr(verify, name, no_allocation)


def test_theorem_run_too_large_to_store_is_refused(monkeypatch):
    _refuse_allocation(monkeypatch, ["run", "make_diagonal_problem"])
    # the budget for eps = 1e-300 at cond 1e6, over two cells of 20 seeds
    steps = theorem1_budget(1e6, 1e-300).budget
    assert (steps + 1) * 20 * 4 > MAX_RUN_VALUES
    with pytest.raises(ConfigError) as exc:
        verify.verify_theorem(1, [1e6, 28.0], [1e-300], 20)
    assert str(exc.value) == (
        f"thm1 run of K={steps} steps at seeds=20 pairs=2 would store"
        f" {(steps + 1) * 20 * 4} values, above MAX_RUN_VALUES={MAX_RUN_VALUES}"
    )
    # 2,237 pairs store (K + 1) * 2m iterates and no (2m)^2 diagonal Hessian
    monkeypatch.undo()
    conds = np.linspace(28.0, 1000.0, 2237).tolist()
    assert (2 * 2237) ** 2 > MAX_RUN_VALUES > (1 + 1) * 2 * 2237
    report = verify.verify_theorem(2, conds, [1e-3], 1, budget_override=1)
    assert report.lines == reference_theorem_lines(2, conds, [1e-3], 1, budget_override=1)


def test_theorem_run_at_the_storage_limit_is_not_refused(monkeypatch):
    class Ran(Exception):
        pass

    def run(problem, params, starts, num_steps):
        raise Ran((num_steps + 1) * starts.size)

    monkeypatch.setattr(verify, "run", run)
    # (K + 1) * seeds * 2m = MAX_RUN_VALUES exactly
    with pytest.raises(Ran) as exc:
        verify.verify_theorem(1, [100.0], [0.01], 10, budget_override=MAX_RUN_VALUES // 20 - 1)
    assert exc.value.args == (MAX_RUN_VALUES,)


@pytest.mark.parametrize("sweep", [verify.verify_norm_bound, verify.verify_schur])
def test_sweep_too_large_to_store_is_refused(monkeypatch, sweep):
    _refuse_allocation(monkeypatch, ["log_power_norms", "schur_factors"])
    label = "norm-bound" if sweep is verify.verify_norm_bound else "schur"
    with pytest.raises(ConfigError) as exc:
        sweep(kmax=10_000_000)
    assert str(exc.value) == (
        f"{label} sweep of kmax=10000000 over 420 points would store 4200000000 values,"
        f" above MAX_RUN_VALUES={MAX_RUN_VALUES}"
    )
    grid = parameter_grid(alpha_step=0.5)
    with pytest.raises(AssertionError, match="refusal must come before"):
        sweep(grid, kmax=MAX_RUN_VALUES // len(grid))  # fits, so it gets past the guard


@settings(deadline=None, max_examples=100)
@given(dimension=st.sampled_from([1, 2, 400]), seed=st.integers(0, 2**64 - 1))
def test_unit_start_is_the_normalized_seeded_draw_bit_for_bit(dimension, seed):
    v = np.random.default_rng(seed).standard_normal(dimension)
    assert unit_start(dimension, seed).tobytes() == (v / np.linalg.norm(v)).tobytes()


@pytest.mark.parametrize("setting", [None, "1", "4", "x"])
def test_thread_cap_ignores_momlab_threads(monkeypatch, setting):
    monkeypatch.delenv("MOMLAB_THREADS", raising=False)
    if setting is not None:
        monkeypatch.setenv("MOMLAB_THREADS", setting)
    assert verify.thread_cap() == min(os.cpu_count() or 1, 8)
