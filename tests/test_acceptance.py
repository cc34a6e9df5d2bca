"""Acceptance suite: the ten advertised end-to-end guarantees.

Each criterion is one test that prints a single PASS line on success
(visible with ``pytest -s`` or in captured output on failure). Expected
values are computed by independent oracles: repeated multiplication with
scale tracking, batched Gram-matrix singular values, the quadratic-formula
eigensolver, and direct formula evaluation.
"""

import math
import time

import numpy as np
import pytest

from momlab.complexity import (
    sufficient_condition_chain,
    theorem1_budget,
    theorem2_budget,
)
from momlab.methods import (
    MethodKind,
    MethodParams,
    run,
    theorem1_params,
    theorem2_params,
)
from momlab.oracle import eig_2x2, rotation_matrix
from momlab.problems import (
    EigenBounds,
    make_diagonal_problem,
    make_rotated_problem,
    random_orthogonal,
)
from momlab.seeding import stream_seed
from momlab.spectral import (
    DOUBLE_ROOT,
    analyze_hbm,
    analyze_nag,
    block_power,
    hbm_block,
    nag_block,
    parameter_grid,
    schur_factors,
    snapped_double_root,
)

from conftest import batched_sigma_max

CONDS = (28.0, 100.0, 1000.0)
NUM_SEEDS = 20


def _unit_starts(dimension, count, tag):
    starts = []
    for i in range(count):
        rng = np.random.default_rng(stream_seed(2024, tag, i))
        v = rng.standard_normal(dimension)
        starts.append(v / np.linalg.norm(v))
    return starts


def _log_norm_sweep(blocks, kmax):
    """log ||block^k|| for a stack of 2x2 blocks, k = 1..kmax, by repeated
    multiplication with per-step renormalization (no underflow)."""
    count = blocks.shape[0]
    logs = np.full((count, kmax), -np.inf)
    power = np.broadcast_to(np.eye(2), blocks.shape).copy()
    log_scale = np.zeros(count)
    for k in range(1, kmax + 1):
        power = power @ blocks
        peak = np.abs(power).reshape(count, -1).max(axis=1)
        alive = peak > 0.0
        safe = np.where(alive, peak, 1.0)
        power = power / safe[:, None, None]
        log_scale = np.where(alive, log_scale + np.log(safe), log_scale)
        logs[alive, k - 1] = log_scale[alive] + np.log(batched_sigma_max(power[alive]))
    return logs


def _log_bound_rows(rhos, kmax, shift, power_offset, count_offset):
    """log of shift * rho^(k + power_offset) * (k + count_offset) rows."""
    ks = np.arange(1, kmax + 1, dtype=float)
    out = np.empty((len(rhos), kmax))
    positive = rhos > 0.0
    with np.errstate(divide="ignore"):  # -inf rows are the intended limit
        base = math.log(shift) + np.log(ks + count_offset)
    out[positive] = base[None, :] + np.outer(np.log(rhos[positive]), ks + power_offset)
    zero_rows = np.where(ks + power_offset == 0.0, base, -np.inf)
    out[~positive] = zero_rows
    return out


def _sweep_grid():
    grid = parameter_grid(alpha_step=0.1)  # 400 rectangular + 20 double-root
    assert len(grid) >= 200
    return grid


# ---------------------------------------------------------------------------


def test_criterion_01_hbm_budget_guarantee():
    started = time.monotonic()
    checked = 0
    for cond in CONDS:
        problem = make_diagonal_problem([1.0, cond])
        params = theorem1_params(EigenBounds(1.0, cond))
        for eps in (1.0 / cond, 1.0 / (10.0 * cond)):
            budget = theorem1_budget(cond, eps).budget
            assert budget == 1 + math.ceil(math.sqrt(2.0 * cond) * math.log(2.0 / eps))
            for x0 in _unit_starts(2, NUM_SEEDS, tag=1):
                traj = run(problem, params, x0, budget)
                reached = np.linalg.norm(traj.averaged_final)
                assert reached <= eps * np.linalg.norm(x0), (cond, eps)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"PASS criterion 1: heavy-ball budget holds in {checked} cells ({elapsed:.2f}s)")


def test_criterion_02_nag_budget_guarantee_and_ratio():
    checked = 0
    for cond in CONDS:
        problem = make_diagonal_problem([1.0, cond])
        params = theorem2_params(EigenBounds(1.0, cond))
        for eps in (1.0 / cond, 1.0 / (10.0 * cond)):
            budget = theorem2_budget(cond, eps).budget
            assert budget == 1 + math.ceil(2.0 * math.sqrt(cond) * math.log(2.0 / eps))
            for x0 in _unit_starts(2, NUM_SEEDS, tag=2):
                traj = run(problem, params, x0, budget)
                reached = np.linalg.norm(traj.averaged_final)
                assert reached <= eps * np.linalg.norm(x0), (cond, eps)
                checked += 1
    for cond in (100.0, 1e4):
        for eps in (1.0 / cond, 1.0 / (10.0 * cond)):
            k1 = theorem1_budget(cond, eps).budget
            k2 = theorem2_budget(cond, eps).budget
            assert abs(k2 - (1.0 + math.sqrt(2.0) * (k1 - 1))) <= 1.0
    print(f"PASS criterion 2: accelerated budget holds in {checked} cells, sqrt(2) ratio")


def test_criterion_03_transient_norm_bound_sweep():
    grid = _sweep_grid()
    kmax = 200
    blocks = np.stack([analyze_hbm(a, b).block() for a, b in grid])
    rhos = np.array([analyze_hbm(a, b).rho for a, b in grid])
    log_norms = _log_norm_sweep(blocks, kmax)
    log_upper = _log_bound_rows(rhos, kmax, shift=2.0, power_offset=-1.0, count_offset=1.0)
    assert not np.isnan(log_norms).any() and not np.isnan(log_upper).any()
    assert (log_norms <= log_upper).all()

    double_rows = [i for i, (a, b) in enumerate(grid)
                   if analyze_hbm(a, b).regime == DOUBLE_ROOT]
    assert double_rows
    log_lower = _log_bound_rows(
        rhos[double_rows], kmax, shift=2.0, power_offset=1.0, count_offset=-1.0
    )
    assert (log_norms[double_rows, 1:] >= log_lower[:, 1:]).all()  # k >= 2
    print(
        f"PASS criterion 3: 2 rho^(k-1)(k+1) dominates exact norms on "
        f"{len(grid)} points x k<=200; double-root floor holds"
    )


def test_criterion_04_closed_form_powers_match_brute_force():
    grid = _sweep_grid()
    blocks = np.stack([analyze_hbm(a, b).block() for a, b in grid])
    specs = [analyze_hbm(a, b) for a, b in grid]
    power = np.broadcast_to(np.eye(2), blocks.shape).copy()
    for k in range(1, 101):
        power = power @ blocks
        for i, spec in enumerate(specs):
            closed = block_power(spec, k)
            assert np.allclose(closed, power[i], rtol=1e-9, atol=1e-14), (grid[i], k)

    # Jordan case: the cross sum collapses to k * lam^(k-1)
    alpha_i, beta = snapped_double_root(0.5)
    spec = analyze_hbm(alpha_i, beta)
    lam = spec.lambda_plus.real
    for k in (2, 10, 50, 100):
        assert block_power(spec, k)[0, 1] == pytest.approx(k * lam ** (k - 1), rel=1e-12)
    print(f"PASS criterion 4: closed-form powers match brute force on {len(grid)} points x k<=100")


def test_criterion_05_spectral_formulas_match_quadratic_oracle():
    grid = _sweep_grid()
    complex_seen = {"hbm": 0, "nag": 0}
    for alpha_i, beta in grid:
        for label, spec, block in (
            ("hbm", analyze_hbm(alpha_i, beta), hbm_block(alpha_i, beta)),
            ("nag", analyze_nag(alpha_i, beta), nag_block(alpha_i, beta)),
        ):
            oracle = sorted(eig_2x2(block), key=lambda z: (z.real, z.imag))
            ours = sorted(
                [spec.lambda_plus, spec.lambda_minus], key=lambda z: (z.real, z.imag)
            )
            assert abs(oracle[0] - ours[0]) <= 1e-10
            assert abs(oracle[1] - ours[1]) <= 1e-10
            assert abs(spec.rho - max(abs(z) for z in oracle)) <= 1e-10
            if spec.regime == "complex_pair":
                complex_seen[label] += 1
                expected = beta if label == "hbm" else beta * (1.0 - alpha_i)
                assert abs(abs(spec.lambda_plus) ** 2 - expected) <= 1e-12
                assert abs(abs(spec.lambda_minus) ** 2 - expected) <= 1e-12
    assert complex_seen["hbm"] > 50 and complex_seen["nag"] > 50
    print(f"PASS criterion 5: eigenvalues/rho match the oracle on {len(grid)} points (both methods)")


def test_criterion_06_schur_suite():
    grid = _sweep_grid()
    kmax = 200
    worst_recon = 0.0
    worst_cond = 0.0
    r_stack = []
    rhos = []
    for alpha_i, beta in grid:
        spec = analyze_hbm(alpha_i, beta)
        factors = schur_factors(spec)
        worst_recon = max(worst_recon, np.abs(factors.reconstruct() - spec.block()).max())
        sv = np.linalg.svd(factors.T, compute_uv=False)
        worst_cond = max(worst_cond, sv[0] / sv[1])
        r_stack.append(factors.R)
        rhos.append(spec.rho)
    assert worst_recon <= 1e-12
    assert worst_cond <= 3.0

    log_norms = _log_norm_sweep(np.stack(r_stack), kmax)
    log_upper = _log_bound_rows(
        np.array(rhos), kmax, shift=1.0, power_offset=-1.0, count_offset=1.0
    )
    assert (log_norms <= log_upper).all()
    print(
        f"PASS criterion 6: Schur reconstruction <= {worst_recon:.2e}, "
        f"cond(T) <= {worst_cond:.3f}, ||R^k|| bound holds"
    )


def test_criterion_07_nonmonotone_convergence_traces():
    problem = make_diagonal_problem([1.0, 100.0])
    params = MethodParams(1.9 / 100.0, 0.85, MethodKind.HBM)
    for x0 in ([0.01, 1.0], [1.0, 1.0], [100.0, 1.0]):
        d = run(problem, params, x0, 100).distances
        assert np.any(d[1:] > d[:-1]), x0  # at least one strict increase
        assert d[100] < d[0], x0
    print("PASS criterion 7: all three traces are non-monotone yet decaying")


def test_criterion_08_spectral_radius_orderings():
    rho_09 = analyze_hbm(0.004, 0.9).rho
    rho_05 = analyze_hbm(0.004, 0.5).rho
    rho_01 = analyze_hbm(0.004, 0.1).rho
    assert rho_09 < rho_05 < rho_01

    for beta in (0.5, 0.9):
        left = (1.0 - math.sqrt(beta)) ** 2
        right = min(2.0, (1.0 + math.sqrt(beta)) ** 2)
        for alpha_i in np.linspace(left + 1e-9, right, 200):
            assert abs(analyze_hbm(alpha_i, beta).rho - math.sqrt(beta)) <= 1e-12

    with pytest.warns(UserWarning, match="outside"):
        overlong = analyze_hbm(2.05, 0.9, strict=False)
    assert overlong.rho < 1.0
    print("PASS criterion 8: momentum orderings and flat spectral-radius plateau")


def test_criterion_09_inequality_chain():
    deltas = np.linspace(math.exp(-2.0) / 100.0, math.exp(-2.0), 100)
    for delta in deltas:
        k_bar = (2.0 / delta) * math.log(1.0 / delta) - 1.0
        assert delta * (k_bar - 1.0) > math.log(k_bar + 1.0)

    for cond in CONDS:
        for eps in (1.0 / cond, 1.0 / (10.0 * cond)):
            report = theorem1_budget(cond, eps)
            assert report.eps_bar >= 2.0 * report.delta**2
            params = theorem1_params(EigenBounds(1.0, cond))
            for alpha_i in np.linspace(2.0 / cond, 2.0, 200):
                rho = analyze_hbm(alpha_i, params.beta).rho
                chain = sufficient_condition_chain(rho, report.budget, eps)
                assert chain.power_bound_holds, (cond, eps, alpha_i)
    print("PASS criterion 9: crossover inequality, eps_bar floor, and scalar budget bound")


def test_criterion_10_equivalences_and_rotation_invariance():
    problem = make_diagonal_problem([1.0, 100.0])
    checks = [
        (MethodParams(0.019, 0.85, MethodKind.MM), MethodParams(0.019, 0.85, MethodKind.HBM)),
        (
            MethodParams(0.01, 0.81 / 0.99, MethodKind.NAG_TWO_SEQUENCE),
            MethodParams(0.01, 0.81 / 0.99, MethodKind.NAG_COMPACT),
        ),
    ]
    for params_a, params_b in checks:
        ta = run(problem, params_a, [1.0, 1.0], 200)
        tb = run(problem, params_b, [1.0, 1.0], 200)
        scale = np.linalg.norm(ta.iterates[0])
        for xa, xb in zip(ta.iterates, tb.iterates):
            ref = max(np.linalg.norm(xa), np.linalg.norm(xb), 1e-3 * scale)
            assert np.linalg.norm(xa - xb) <= 1e-10 * ref

    spectrum = [1.0, 2.5, 10.0, 40.0, 100.0]
    shift = np.array([1.0, -1.0, 2.0, 0.5, -3.0])
    seed = 33
    rotated = make_rotated_problem(spectrum, seed=seed, shift=shift)
    diagonal = make_diagonal_problem(spectrum)
    rotation = rotation_matrix(random_orthogonal(5, seed))
    v = np.array([1.0, 1.0, -1.0, 0.5, 2.0])
    params = MethodParams(1.9 / 100.0, 0.85, MethodKind.HBM)
    t_rot = run(rotated, params, shift + rotation.T @ v, 150)
    t_diag = run(diagonal, params, v, 150)
    rel = np.abs(t_rot.distances - t_diag.distances) / (t_diag.distances + 1e-300)
    assert rel.max() <= 1e-8
    print("PASS criterion 10: method equivalences and rotation invariance")
