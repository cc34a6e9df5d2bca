"""Verification sweeps: end-to-end budget guarantees and norm-bound grids.

These back the ``verify`` CLI subcommand and the acceptance tests. A sweep
returns a report object with per-cell lines (sorted by cell key, so output
is deterministic) and an overall pass flag. A theorem check iterates all
its (cond, eps) pairs and seeds in one run: each pair is two coordinates
{1, cond} of one diagonal problem with the pair's own per-coordinate
parameters. One array index reads every pair's last two rows at its own
budget, and one batched 2-norm gives every ratio. The norm-bound and
Schur sweeps analyse the whole grid in one array call, power its block or
Schur stack in one scale-tracked loop over the stack's four entry arrays,
and compare every (point, k) against its bound as one array expression;
only violations are formatted. Every check refuses, before it allocates,
an array of more than ``MAX_RUN_VALUES`` values.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .complexity import theorem1_budget, theorem2_budget
from .errors import require_storable
from .methods import MethodParams, run, theorem1_params, theorem2_params
from .problems import EigenBounds, make_diagonal_problem
from .seeding import X0_STREAM, stream_seed, unit_start
from .spectral import (
    DOUBLE_ROOT,
    _gram_sigma_max,
    _scalar,
    analyze_hbm,
    eigvec_condition,
    parameter_grid,
    schur_factors,
    spectral_norm_2x2,
)

__all__ = [
    "SweepReport",
    "verify_theorem",
    "verify_norm_bound",
    "verify_schur",
    "log_power_norms",
]


def thread_cap() -> int:
    """min(cpu count, 8), read only by the benchmark's tracer for its ``verify.threads``
    and ``verify.pool_gain``; the benchmark change that retires those removes it."""
    return min(os.cpu_count() or 1, 8)


@dataclass(frozen=True)
class SweepReport:
    label: str
    passed: bool
    lines: list[str] = field(default_factory=list)

    def text(self) -> str:
        return "\n".join(self.lines)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Last-axis 2-norms, each bit for bit ``np.linalg.norm`` of its row (same dot kernel)."""
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0, 0]


def verify_theorem(
    which: int,
    conds,
    eps_values,
    num_seeds: int,
    master_seed: int = 0,
    budget_override: int | None = None,
) -> SweepReport:
    """End-to-end check of one budget guarantee on two-point spectra {1, c}.

    For every (cond, eps, seed) cell: run the method with its fixed-parameter
    rule for the computed budget K from a seeded unit-norm start and check
    ||(x_{K-1}+x_K)/2 - x*|| <= eps * ||x_0 - x*|| with no slack. A cell
    whose ratio is exactly 0 has an underflowed 2-norm: it is marked
    ``UNDERFLOW``, does not pass, and the summary counts it.
    Precondition violations (cond < 28, eps > 1/cond; each cond's rule before
    its budgets) raise before any cell runs, and so does a run too large to
    store (``MAX_RUN_VALUES``).

    All m (cond, eps) pairs run as one problem in one ``run`` call: pair j's
    spectrum {1, c} sits at coordinates j and m + j with the pair's own alpha
    and beta, and its seeds' starts fill those two columns of one (seeds, 2m)
    stack. The run goes to the largest K. One index reads rows K_j - 1 and
    K_j of every pair, and one batched 2-norm gives every ratio, bit for bit
    the ratio of the pair's own (seeds, 2) run.
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    if not conds or not eps_values:
        raise ValueError("cond and eps lists must be non-empty")
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be >= 1, got {num_seeds}")
    budget_of = theorem1_budget if which == 1 else theorem2_budget
    params_of = theorem1_params if which == 1 else theorem2_params
    label = f"thm{which}"

    conds = [float(cond) for cond in sorted(conds)]
    eps_values = [float(eps) for eps in sorted(eps_values)]
    rules, budgets = [], []
    for cond in conds:
        bounds = EigenBounds(1.0, cond)
        rules.append(params_of(bounds))
        budgets += [budget_of(bounds.cond_bar, eps).budget for eps in eps_values]
    if budget_override is not None:
        budgets = [budget_override] * len(budgets)
    pairs = list(itertools.product(conds, eps_values))  # pair j, in budget order
    m, num_steps = len(pairs), max(budgets)
    require_storable(
        (num_steps + 1) * num_seeds * 2 * m,
        f"{label} run of K={num_steps} steps at seeds={num_seeds} pairs={m}",
    )
    curvatures = [1.0] * m + [cond for cond, _ in pairs]
    problem = make_diagonal_problem(curvatures)
    pair_rules = [rule for rule in rules for _ in eps_values] * 2
    alphas, betas = np.array([(rule.alpha, rule.beta) for rule in pair_rules]).T
    params = MethodParams(alphas, betas, rules[0].kind)
    starts = np.array([
        unit_start(2, stream_seed(master_seed, X0_STREAM, *cell))
        for cell in np.ndindex(len(conds), len(eps_values), num_seeds)
    ]).reshape(m, num_seeds, 2)
    traj = run(problem, params, starts.transpose(1, 2, 0).reshape(num_seeds, 2 * m), num_steps)

    # x* = 0, so errors are points; final[r, j] is row K_j - 1 + r of pair j, (seeds, 2)
    history = traj.errors.reshape(num_steps + 1, num_seeds, 2, m)
    final = history[np.array(budgets) + [[-1], [0]], :, :, np.arange(m)]
    ratios = _row_norms(0.5 * (final[0] + final[1])) / _row_norms(starts)
    # a ratio of exactly 0 from a unit start is an underflowed 2-norm, which checks nothing
    underflowed = ratios == 0.0
    passed = (ratios <= np.array([eps for _, eps in pairs])[:, None]) & ~underflowed
    status = np.where(underflowed, "UNDERFLOW", np.where(passed, "PASS", "FAIL"))
    cells = zip(ratios.tolist(), status.tolist())
    lines = [
        f"{label} cond={cond:g} eps={eps:g} seed={si} K={budget} ratio={ratio:.6e} {status}"
        for (cond, eps), budget, (pair_ratios, pair_status) in zip(pairs, budgets, cells)
        for si, (ratio, status) in enumerate(zip(pair_ratios, pair_status))
    ]
    num_pass, num_underflowed = int(passed.sum()), int(underflowed.sum())
    summary = f"{label}: {num_pass}/{passed.size} cells passed"
    lines.append(summary + (f" ({num_underflowed} underflowed)" if num_underflowed else ""))
    return SweepReport(label=label, passed=num_pass == passed.size, lines=lines)


def log_power_norms(mat, kmax: int) -> np.ndarray:
    """log ||mat^k||_2 for k = 1..kmax by scale-tracked repeated multiplication.

    ``mat`` is one 2x2 matrix or a stack (..., 2, 2); the result has shape
    (kmax,) or (..., kmax). The stack is split into its four entry arrays
    once, and each step forms the running power's four entries from them
    (8 multiplies, 4 adds, over the whole stack). Each running power is
    renormalized by its largest entry every step, with its own accumulated
    log scale carried along, so powers of strongly contracting matrices never
    underflow. A power that becomes exactly zero (nilpotent blocks) yields
    -inf from that k on. Real input stays real.
    """
    mat = np.asarray(mat)
    a, b, c, d = mat[..., 0, 0], mat[..., 0, 1], mat[..., 1, 0], mat[..., 1, 1]
    u00, u01, u10, u11 = 1.0, 0.0, 0.0, 1.0  # the identity, broadcast on first use
    logs = np.empty((*mat.shape[:-2], kmax))
    log_scale = np.zeros(mat.shape[:-2])
    for k in range(kmax):
        u00, u01, u10, u11 = (
            u00 * a + u01 * c, u00 * b + u01 * d, u10 * a + u11 * c, u10 * b + u11 * d
        )
        peak = np.maximum(
            np.maximum(np.abs(u00), np.abs(u01)), np.maximum(np.abs(u10), np.abs(u11))
        )
        peak = np.where(peak > 0.0, peak, 1.0)  # a zero power stays zero
        u00, u01, u10, u11 = u00 / peak, u01 / peak, u10 / peak, u11 / peak
        log_scale = log_scale + np.log(peak)
        # entries are now at most 1 in magnitude: the Gram formula needs no prescaling
        with np.errstate(divide="ignore"):  # log 0 = -inf for a zero power
            logs[..., k] = log_scale + np.log(_gram_sigma_max(u00, u01, u10, u11))
    return logs


def _log_power_law(rho: np.ndarray, kmax: int, power: int, count: int) -> np.ndarray:
    """log of 2 rho^{k+power} (k+count) for k = 1..kmax, one row per rho.

    rho^0 is 1 also at rho = 0, and a zero factor gives -inf.
    """
    ks = np.arange(1, kmax + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_term = np.where(ks + power == 0.0, 0.0, (ks + power) * np.log(rho)[:, None])
        return math.log(2.0) + rho_term + np.log(ks + count)


def _log_upper_bound(rho: np.ndarray, kmax: int) -> np.ndarray:
    """log of the transient bound 2 rho^{k-1} (k+1), shape (len(rho), kmax)."""
    return _log_power_law(rho, kmax, -1, 1)


def _log_tightness_lower(rho: np.ndarray, kmax: int) -> np.ndarray:
    """log of the double-root floor 2 rho^{k+1} (k-1); -inf at k = 1."""
    return _log_power_law(rho, kmax, 1, -1)


def _grid_spectra(label: str, grid, kmax: int):
    """The sweep grid (``parameter_grid(0.1)`` by default) and its spectra as
    arrays, once its (points, kmax) log arrays are known to fit MAX_RUN_VALUES."""
    grid = parameter_grid(alpha_step=0.1) if grid is None else list(grid)
    require_storable(len(grid) * kmax, f"{label} sweep of kmax={kmax} over {len(grid)} points")
    alphas, betas = np.array(grid, dtype=float).reshape(-1, 2).T
    return grid, analyze_hbm(alphas, betas)


def _point(grid, index) -> str:
    alpha_i, beta = grid[index]
    return f"alpha_i={alpha_i:.6g} beta={beta:.6g}"


def _sweep(label: str, grid, kmax: int, violations: list[str], summary: str) -> SweepReport:
    """The report: sorted violation lines, then one summary line."""
    status = "PASS" if not violations else "FAIL"
    last = (
        f"{label}: grid={len(grid)} kmax={kmax} violations={len(violations)}"
        f" {summary} {status}"
    )
    return SweepReport(label=label, passed=not violations, lines=[*sorted(violations), last])


def verify_norm_bound(grid=None, kmax: int = 200) -> SweepReport:
    """Exact ||block^k|| <= 2 rho^{k-1} (k+1) over the grid, plus the
    double-root tightness ||block^k|| >= 2 rho^{k+1} (k-1) for k >= 2.

    All grid points' blocks are powered as one stack, and each bound is one
    (points, kmax) comparison in log space, so deeply contracted powers stay
    exact.
    """
    grid, spec = _grid_spectra("norm-bound", grid, kmax)
    log_norms = log_power_norms(spec.block(), kmax)
    log_bound = _log_upper_bound(spec.rho, kmax)
    violations = [
        f"norm-bound FAIL {_point(grid, i)} k={k + 1}"
        f" log_norm={log_norms[i, k]:.6e} log_bound={log_bound[i, k]:.6e}"
        for i, k in zip(*np.nonzero(log_norms > log_bound))
    ]
    double_root = (spec.regime == DOUBLE_ROOT)[:, None]
    loose = double_root & (log_norms < _log_tightness_lower(spec.rho, kmax))
    violations += [
        f"tightness FAIL {_point(grid, i)} k={k + 1} log_norm={log_norms[i, k]:.6e}"
        for i, k in zip(*np.nonzero(loose))
    ]
    with np.errstate(invalid="ignore"):  # -inf - -inf past a zero power
        log_margin = np.where(log_norms > -math.inf, log_norms - log_bound, -math.inf)
    worst = math.exp(log_margin.max(initial=-math.inf))
    return _sweep("norm-bound", grid, kmax, violations, f"max_norm_to_bound={worst:.6f}")


# Schur suite tolerances: reconstruction residual and cond(T) = ||T|| ||T^{-1}||.
_RECONSTRUCTION_TOL = 1e-12
_COND_T_MAX = 3.0


def verify_schur(grid=None, kmax: int = 200) -> SweepReport:
    """Schur suite: reconstruction to 1e-12, cond(T) <= 3, and
    ||R^k|| <= rho^{k-1} (k+1) with exact norms, over the grid as one stack."""
    grid, spec = _grid_spectra("schur", grid, kmax)
    factors = schur_factors(spec)
    recon = np.abs(factors.reconstruct() - spec.block()).max(axis=(-2, -1))
    cond_t = spectral_norm_2x2(factors.T) * spectral_norm_2x2(factors.t_inverse())
    violations = [
        f"schur-reconstruction FAIL {_point(grid, i)} residual={recon[i]:.3e}"
        for i in np.nonzero(recon > _RECONSTRUCTION_TOL)[0]
    ]
    violations += [
        f"schur-cond FAIL {_point(grid, i)} cond_T={cond_t[i]:.6f}"
        for i in np.nonzero(cond_t > _COND_T_MAX)[0]
    ]
    log_norms = log_power_norms(factors.R, kmax)
    # log of rho^{k-1} (k+1); the factor-2 version minus log 2
    log_bound = _log_upper_bound(spec.rho, kmax) - math.log(2.0)
    violations += [
        f"schur-rpower FAIL {_point(grid, i)} k={k + 1}"
        for i, k in zip(*np.nonzero(log_norms > log_bound))
    ]
    summary = (
        f"max_reconstruction={recon.max(initial=0.0):.3e}"
        f" max_cond_T={cond_t.max(initial=0.0):.6f}"
    )
    return _sweep("schur", grid, kmax, violations, summary)


# Ceiling of the fig4-left surface cond(S), which is infinite at the double root.
_EIGVEC_CONDITION_CLAMP = 20.0


def clamped_eigvec_condition(alpha_i, beta):
    """min(cond(S), 20) at a point or over arrays; the double root maps to 20."""
    return _scalar(
        np.minimum(eigvec_condition(analyze_hbm(alpha_i, beta)), _EIGVEC_CONDITION_CLAMP)
    )
