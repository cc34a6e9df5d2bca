"""Verification sweeps: end-to-end budget guarantees and norm-bound grids.

These back the ``verify`` CLI subcommand and the acceptance tests. A sweep
returns a report object with per-cell lines (sorted by cell key, so output
is deterministic) and an overall pass flag. The theorem checks iterate all
seeds of a (cond, eps) cell as one batch. The norm-bound and Schur sweeps
stack the 2x2 matrices of all grid points into one (points, 2, 2) array,
power it in one scale-tracked loop and compare every (point, k) against its
bound as one array expression; only violations are formatted.
"""

from __future__ import annotations

import math
import os
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
]


def thread_cap() -> int:
    """min(cpu count, 8), capped by MOMLAB_THREADS.

    No sweep uses it any more: the sweeps run as one batched numpy pass. It
    stays only because the benchmark's tracer reads it for its
    ``verify.threads``/``verify.pool_gain`` metrics; the benchmark change
    that retires those metrics removes it too.
    """
    cap = min(os.cpu_count() or 1, 8)
    env = os.environ.get("MOMLAB_THREADS")
    if env is not None:
        try:
            cap = min(cap, max(1, int(env)))
        except ValueError:
            cap = 1
    return cap


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

    ``mat`` is one 2x2 matrix or a stack (..., 2, 2); the result has shape
    (kmax,) or (..., kmax). Each running power is renormalized by its largest
    entry every step, with its own accumulated log scale carried along, so
    powers of strongly contracting matrices never underflow. A power that
    becomes exactly zero (nilpotent blocks) yields -inf from that k on.
    """
    mat = np.asarray(mat)
    u = np.broadcast_to(np.eye(2, dtype=np.result_type(mat.dtype, float)), mat.shape)
    logs = np.empty((*mat.shape[:-2], kmax))
    log_scale = np.zeros(mat.shape[:-2])
    for k in range(kmax):
        # einsum: a stacked @ makes one BLAS call per 2x2 matrix
        u = np.einsum("...ij,...jk->...ik", u, mat)
        peak = np.abs(u).max(axis=(-2, -1))
        peak = np.where(peak > 0.0, peak, 1.0)  # a zero power stays zero
        u = u / peak[..., None, None]
        log_scale = log_scale + np.log(peak)
        with np.errstate(divide="ignore"):  # log 0 = -inf for a zero power
            logs[..., k] = log_scale + np.log(spectral_norm_2x2(u))
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


def _grid_spectra(grid):
    """The sweep grid (``parameter_grid(0.1)`` by default) and its spectra."""
    grid = parameter_grid(alpha_step=0.1) if grid is None else list(grid)
    return grid, [analyze_hbm(alpha_i, beta) for alpha_i, beta in grid]


def _stack(matrices) -> np.ndarray:
    """The (points, 2, 2) stack of per-point matrices, also for no points."""
    return np.array(matrices).reshape(-1, 2, 2)


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
    grid, specs = _grid_spectra(grid)
    rho = np.array([spec.rho for spec in specs])
    double_root = np.array([spec.regime == DOUBLE_ROOT for spec in specs], dtype=bool)
    log_norms = log_power_norms(_stack([spec.block() for spec in specs]), kmax)
    log_bound = _log_upper_bound(rho, kmax)
    violations = [
        f"norm-bound FAIL {_point(grid, i)} k={k + 1}"
        f" log_norm={log_norms[i, k]:.6e} log_bound={log_bound[i, k]:.6e}"
        for i, k in zip(*np.nonzero(log_norms > log_bound))
    ]
    loose = double_root[:, None] & (log_norms < _log_tightness_lower(rho, kmax))
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
    grid, specs = _grid_spectra(grid)
    factors = [schur_factors(spec) for spec in specs]
    recon = np.array(
        [np.abs(f.reconstruct() - spec.block()).max() for f, spec in zip(factors, specs)]
    )
    cond_t = spectral_norm_2x2(_stack([f.T for f in factors])) * spectral_norm_2x2(
        _stack([f.t_inverse() for f in factors])
    )
    violations = [
        f"schur-reconstruction FAIL {_point(grid, i)} residual={recon[i]:.3e}"
        for i in np.nonzero(recon > _RECONSTRUCTION_TOL)[0]
    ]
    violations += [
        f"schur-cond FAIL {_point(grid, i)} cond_T={cond_t[i]:.6f}"
        for i in np.nonzero(cond_t > _COND_T_MAX)[0]
    ]
    log_norms = log_power_norms(_stack([f.R for f in factors]), kmax)
    # log of rho^{k-1} (k+1); the factor-2 version minus log 2
    log_bound = _log_upper_bound(np.array([spec.rho for spec in specs]), kmax) - math.log(2.0)
    violations += [
        f"schur-rpower FAIL {_point(grid, i)} k={k + 1}"
        for i, k in zip(*np.nonzero(log_norms > log_bound))
    ]
    summary = (
        f"max_reconstruction={recon.max(initial=0.0):.3e}"
        f" max_cond_T={cond_t.max(initial=0.0):.6f}"
    )
    return _sweep("schur", grid, kmax, violations, summary)


def clamped_eigvec_condition(alpha_i: float, beta: float, clamp: float = 20.0) -> float:
    """min(cond(S), clamp); the double root maps to the clamp value."""
    return min(eigvec_condition(analyze_hbm(alpha_i, beta)), clamp)
