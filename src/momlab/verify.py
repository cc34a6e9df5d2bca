"""Verification sweeps: end-to-end budget guarantees and norm-bound grids.

These back the ``verify`` CLI subcommand and the acceptance tests. A sweep
returns a report object with per-cell lines (sorted by cell key, so output
is deterministic regardless of execution order) and an overall pass flag.
The theorem checks iterate all seeds of a (cond, eps) cell as one batch.
The norm-bound and Schur sweeps fan their grid points out over a thread
pool whose size ``MOMLAB_THREADS`` caps.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .complexity import theorem1_budget, theorem2_budget
from .methods import run, theorem1_params, theorem2_params
from .problems import EigenBounds, make_diagonal_problem
from .seeding import X0_STREAM, stream_seed
from .spectral import (
    DOUBLE_ROOT,
    analyze_hbm,
    eigvec_condition,
    parameter_grid,
    schur_factors,
    spectral_norm_2x2,
)

__all__ = [
    "TheoremCase",
    "SweepReport",
    "verify_theorem",
    "verify_norm_bound",
    "verify_schur",
    "log_power_norms",
    "thread_cap",
]


def thread_cap() -> int:
    """Sweep parallelism: min(cpu count, 8), capped by MOMLAB_THREADS."""
    cap = min(os.cpu_count() or 1, 8)
    env = os.environ.get("MOMLAB_THREADS")
    if env is not None:
        try:
            cap = min(cap, max(1, int(env)))
        except ValueError:
            cap = 1
    return cap


def _map_cells(fn, cells):
    workers = min(thread_cap(), max(1, len(cells)))
    if workers <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))  # preserves input order


@dataclass(frozen=True)
class TheoremCase:
    cond: float
    eps: float
    seed_index: int
    budget: int
    ratio: float

    @property
    def passed(self) -> bool:
        return self.ratio <= self.eps

    def line(self, label: str) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{label} cond={self.cond:g} eps={self.eps:g} seed={self.seed_index}"
            f" K={self.budget} ratio={self.ratio:.6e} {status}"
        )


@dataclass(frozen=True)
class SweepReport:
    label: str
    passed: bool
    lines: list[str] = field(default_factory=list)

    def text(self) -> str:
        return "\n".join(self.lines)


def _unit_start(dimension: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dimension)
    return v / np.linalg.norm(v)


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
    ||(x_{K-1}+x_K)/2 - x*|| <= eps * ||x_0 - x*|| with no slack. The starts
    of all seeds of one (cond, eps) pair run as one (seeds, 2) batch.
    Precondition violations (cond < 28, eps > 1/cond) raise before any cell
    runs.
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

    cells = []
    for ci, cond in enumerate(sorted(conds)):
        bounds = EigenBounds(1.0, float(cond))
        params = params_of(bounds)
        problem = make_diagonal_problem([1.0, float(cond)])
        for ei, eps in enumerate(sorted(eps_values)):
            budget = budget_of(bounds.cond_bar, float(eps)).budget
            if budget_override is not None:
                budget = budget_override
            cells.append((ci, float(cond), ei, float(eps), problem, params, budget))

    cases = []
    for ci, cond, ei, eps, problem, params, budget in cells:
        seeds = [stream_seed(master_seed, X0_STREAM, ci, ei, si) for si in range(num_seeds)]
        starts = np.array([_unit_start(2, seed) for seed in seeds])
        traj = run(problem, params, starts, budget)
        for si, (x0, averaged) in enumerate(zip(starts, traj.averaged_final)):
            # per-row norms, so each ratio equals that of the seed's own run
            start_dist = float(np.linalg.norm(x0 - problem.x_star))
            ratio = float(np.linalg.norm(averaged - problem.x_star)) / start_dist
            cases.append(
                TheoremCase(cond=cond, eps=eps, seed_index=si, budget=budget, ratio=ratio)
            )
    lines = [case.line(label) for case in cases]
    num_pass = sum(case.passed for case in cases)
    lines.append(f"{label}: {num_pass}/{len(cases)} cells passed")
    return SweepReport(label=label, passed=num_pass == len(cases), lines=lines)


def log_power_norms(mat, kmax: int) -> np.ndarray:
    """log ||mat^k||_2 for k = 1..kmax by scale-tracked repeated multiplication.

    The running power is renormalized by its largest entry each step (with
    the accumulated log scale carried along), so powers of strongly
    contracting matrices never underflow. A power that becomes exactly zero
    (nilpotent blocks) yields -inf from that k on.
    """
    mat = np.asarray(mat)
    logs = np.full(kmax, -math.inf)
    u = np.eye(2, dtype=np.result_type(mat.dtype, float))
    log_scale = 0.0
    for k in range(1, kmax + 1):
        u = u @ mat
        peak = float(np.abs(u).max())
        if peak == 0.0:
            break
        u = u / peak
        log_scale += math.log(peak)
        logs[k - 1] = log_scale + math.log(spectral_norm_2x2(u))
    return logs


def _log_upper_bound(rho: float, k: int) -> float:
    """log of the transient bound 2 rho^{k-1} (k+1), safe for rho = 0."""
    if rho == 0.0:
        return math.log(2.0 * (k + 1)) if k == 1 else -math.inf
    return math.log(2.0) + (k - 1) * math.log(rho) + math.log(k + 1.0)


def _log_tightness_lower(rho: float, k: int) -> float:
    """log of the double-root floor 2 rho^{k+1} (k-1) for k >= 2."""
    if rho == 0.0:
        return -math.inf
    return math.log(2.0) + (k + 1) * math.log(rho) + math.log(k - 1.0)


def _sweep(label: str, grid, kmax: int, check_point, summary) -> SweepReport:
    """Run ``check_point`` on every grid cell and assemble the report.

    ``check_point`` returns (violation lines, *stats) per cell; ``summary``
    turns the per-cell results into the text between the violation count and
    the status of the last line. Violation lines are sorted.
    """
    if grid is None:
        grid = parameter_grid(alpha_step=0.1)
    results = _map_cells(check_point, list(grid))
    violations = sorted(row for rows, *_ in results for row in rows)
    status = "PASS" if not violations else "FAIL"
    last = (
        f"{label}: grid={len(grid)} kmax={kmax} violations={len(violations)}"
        f" {summary(results)} {status}"
    )
    return SweepReport(label=label, passed=not violations, lines=[*violations, last])


def verify_norm_bound(grid=None, kmax: int = 200) -> SweepReport:
    """Exact ||block^k|| <= 2 rho^{k-1} (k+1) over the grid, plus the
    double-root tightness ||block^k|| >= 2 rho^{k+1} (k-1) for k >= 2.

    Comparisons run in log space so deeply contracted powers stay exact.
    """

    def check_point(point):
        alpha_i, beta = point
        spec = analyze_hbm(alpha_i, beta)
        log_norms = log_power_norms(spec.block(), kmax)
        rows = []
        log_margin = -math.inf
        for k in range(1, kmax + 1):
            log_bound = _log_upper_bound(spec.rho, k)
            log_norm = log_norms[k - 1]
            if log_norm > log_bound:
                rows.append(
                    f"norm-bound FAIL alpha_i={alpha_i:.6g} beta={beta:.6g} k={k}"
                    f" log_norm={log_norm:.6e} log_bound={log_bound:.6e}"
                )
            if log_norm > -math.inf:
                log_margin = max(log_margin, log_norm - log_bound)
            if spec.regime == DOUBLE_ROOT and k >= 2:
                if log_norm < _log_tightness_lower(spec.rho, k):
                    rows.append(
                        f"tightness FAIL alpha_i={alpha_i:.6g} beta={beta:.6g} k={k}"
                        f" log_norm={log_norm:.6e}"
                    )
        return rows, log_margin

    def summary(results):
        worst_margin = max([-math.inf, *(log_margin for _, log_margin in results)])
        return f"max_norm_to_bound={math.exp(worst_margin):.6f}"

    return _sweep("norm-bound", grid, kmax, check_point, summary)


def verify_schur(grid=None, kmax: int = 200) -> SweepReport:
    """Schur suite: reconstruction to 1e-12, cond(T) <= 3, and
    ||R^k|| <= rho^{k-1} (k+1) with exact norms."""

    def check_point(point):
        alpha_i, beta = point
        spec = analyze_hbm(alpha_i, beta)
        factors = schur_factors(spec)
        rows = []
        recon = float(np.abs(factors.reconstruct() - spec.block()).max())
        if recon > 1e-12:
            rows.append(
                f"schur-reconstruction FAIL alpha_i={alpha_i:.6g} beta={beta:.6g}"
                f" residual={recon:.3e}"
            )
        cond_t = spectral_norm_2x2(factors.T) * spectral_norm_2x2(factors.t_inverse())
        if cond_t > 3.0:
            rows.append(
                f"schur-cond FAIL alpha_i={alpha_i:.6g} beta={beta:.6g} cond_T={cond_t:.6f}"
            )
        log_norms = log_power_norms(factors.R, kmax)
        for k in range(1, kmax + 1):
            # log of rho^{k-1} (k+1); the factor-2 version minus log 2
            log_bound = _log_upper_bound(spec.rho, k) - math.log(2.0)
            if log_norms[k - 1] > log_bound:
                rows.append(
                    f"schur-rpower FAIL alpha_i={alpha_i:.6g} beta={beta:.6g} k={k}"
                )
        return rows, recon, cond_t

    def summary(results):
        worst_recon = max([0.0, *(recon for _, recon, _ in results)])
        worst_cond = max([0.0, *(cond_t for _, _, cond_t in results)])
        return f"max_reconstruction={worst_recon:.3e} max_cond_T={worst_cond:.6f}"

    return _sweep("schur", grid, kmax, check_point, summary)


def clamped_eigvec_condition(alpha_i: float, beta: float, clamp: float = 20.0) -> float:
    """min(cond(S), clamp); the double root maps to the clamp value."""
    return min(eigvec_condition(analyze_hbm(alpha_i, beta)), clamp)
