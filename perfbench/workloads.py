"""Seeded op sequences for the three workloads, and the check of every op.

An op is a dict. ``{"op": "cli", "argv": [...]}`` is one in-process
``momlab.cli.main`` call; the runner appends ``--out <file>`` (and, with a
``config``, ``--config <file>``) inside its scratch directory. ``{"op":
"power", ...}`` is one direct ``block_power``/``r_power`` call. ``expect``
holds what the check needs, derived here independently of momlab.

Every workload keeps the work of one pass nearly constant across seeds:
sizes come from fixed levels with a few percent of seeded jitter, and the
seed draws everything else (spectra, parameters, starts, grid points,
order). That keeps run-to-run spread small while the inputs still differ.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sys

import numpy as np

WORKLOADS = ("trajectory", "certify", "blocks")

_BETAS = [0.05 * l for l in range(20)]  # beta axis of the grid figures and grids
# Points of the sweeps' grid, parameter_grid(alpha_step=0.1): 20 alpha_i
# values x 20 betas, plus 20 snapped double-root points.
SWEEP_GRID_POINTS = 20 * 20 + 20


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _jitter(rng, value, frac):
    return value * rng.uniform(1.0 - frac, 1.0 + frac)


def _guarded_ceil(x):
    nearest = round(x)
    return int(nearest) if abs(x - nearest) <= 1e-9 else math.ceil(x)


def budget(which, cond, eps):
    """Certified step count of theorem 1 or 2, as the paper states it."""
    scale = math.sqrt(2.0 * cond) if which == 1 else 2.0 * math.sqrt(cond)
    return 1 + _guarded_ceil(scale * math.log(2.0 / eps))


def _spectrum(n, cond, law):
    if law == "two-point":
        return np.array([1.0] * (n - n // 2) + [cond] * (n // 2))
    return np.geomspace(1.0, cond, n)


def block_rho(kind, a, beta):
    """max |eigenvalue| of the 2x2 iteration blocks at normalized steps ``a``."""
    a = np.asarray(a, dtype=float)
    if kind in ("mm", "hbm"):
        trace, det = 1.0 + beta - a, np.full_like(a, beta)
    else:
        trace, det = (1.0 + beta) * (1.0 - a), beta * (1.0 - a)
    root = np.sqrt(trace.astype(complex) ** 2 - 4.0 * det)
    return float(np.max(np.maximum(abs(trace + root), abs(trace - root))) / 2.0)


# ---------------------------------------------------------------------------
# trajectory: (n, cond, source, rotate) levels; the seed draws the rest. The
# costliest level appears three times, so the tail percentile of a run falls
# inside one level's samples rather than on the edge between two levels.

_TRAJECTORY_LEVELS = (
    (60, 1e4, "theorem2", True),
    (100, 1e3, "theorem1", True),
    (150, 1e2, "explicit", True),
    (200, 1e3, "explicit", True),
    (250, 1e3, "theorem2", True),
    (400, 1e4, "theorem2", True),
    (400, 1e4, "theorem2", True),
    (400, 1e4, "theorem2", True),
    (120, 1e4, "theorem1", False),
    (250, 1e3, "explicit", False),
    (400, 1e2, "theorem2", False),
    (500, 1e4, "theorem1", False),
    (80, 1e3, "theorem2", False),
)


def _trajectory(rng):
    ops = []
    for n, cond, source, rotate in _TRAJECTORY_LEVELS:
        n += rng.randint(-2, 2)
        law = rng.choice(("two-point", "log-uniform"))
        config = {"n": n, "cond": cond, "spectrum_law": law, "seed": rng.randrange(2**32)}
        if rotate:
            config["rotate"] = True
            if rng.random() < 0.5:
                config["shift"] = [rng.gauss(0.0, 1.0) for _ in range(n)]
        if rng.random() < 0.25:
            config["x0"] = [rng.gauss(0.0, 1.0) for _ in range(n)]
        expect = {"eps": None}
        if source == "explicit":
            kind = rng.choice(("mm", "hbm", "nag", "nag-compact"))
            eigs = _spectrum(n, cond, law)
            while True:
                scale = rng.uniform(0.5, 1.6) if kind in ("mm", "hbm") else rng.uniform(0.3, 1.0)
                alpha, beta = scale / cond, rng.uniform(0.3, 0.9)
                rho = block_rho(kind, alpha * eigs, beta)
                if rho < 1.0:
                    break
            config.update(method=kind, num_steps=round(_jitter(rng, 1000, 0.02)))
            config["params"] = {"source": "explicit", "alpha": alpha, "beta": beta}
            expect["steps"] = config["num_steps"]
        else:
            which = 1 if source == "theorem1" else 2
            config["method"] = rng.choice(("mm", "hbm") if which == 1 else ("nag", "nag-compact"))
            config["params"] = {"source": source}
            config["eps"] = eps = rng.uniform(0.8, 1.0) / cond
            expect.update(steps=budget(which, cond, eps), eps=eps)
        ops.append({"op": "cli", "argv": ["run"], "config": config, "expect": expect})
    return ops


# ---------------------------------------------------------------------------
# certify: cond windows per op; thm2 runs sqrt(2) longer, so it gets fewer
# seeds and every op costs about the same.

_COND_WINDOWS = ((28.0, 36.0), (90.0, 110.0), (450.0, 550.0), (2900.0, 3100.0), (8400.0, 8600.0))
_CERTIFY_OPS = ((1, 10),) * 6 + ((2, 7),) * 5  # (theorem, seeds per cell)


def _certify(rng):
    ops = []
    for which, seeds in _CERTIFY_OPS:
        conds = [round(rng.uniform(lo, hi), 3) for lo, hi in _COND_WINDOWS]
        eps = rng.uniform(0.8, 1.0) / max(conds)
        argv = [
            "verify", f"thm{which}",
            "--cond", ",".join(repr(c) for c in conds),
            "--eps", repr(eps),
            "--seeds", str(seeds),
            "--seed", str(rng.randrange(2**32)),
        ]
        expect = {"summary": f"thm{which}: {len(conds) * seeds}/{len(conds) * seeds} cells passed"}
        ops.append({"op": "cli", "argv": argv, "expect": expect})
    return ops


# ---------------------------------------------------------------------------
# blocks: two sweeps, the five grid figures, and a powers phase whose k runs
# over 40 geometric levels from 10 to 1e4.

_FIGURES = ("fig2", "fig3", "fig4-left", "fig4-right", "fig5-analogue")
_POWER_LEVELS = 40


def _figure_rows(figure, resolution):
    return {"fig3": resolution - 1, "fig4-right": resolution}.get(figure, resolution * len(_BETAS))


def default_grid():
    """The points of parameter_grid() as documented, rebuilt here so that the
    inputs do not depend on the code under test: alpha_i = 0.05 j up to 2,
    beta = 0.05 l, plus the snapped double-root points."""
    alphas = [0.05 * j for j in range(1, 41)]
    grid = [(a, b) for a in alphas for b in _BETAS]
    for a in alphas:
        s = round(math.sqrt(a) * (1 << 20)) / (1 << 20)
        grid.append((s * s, (1.0 - s) ** 2))
    return grid


def _blocks(rng):
    ops = []
    for check in ("norm-bound", "schur"):
        steps = rng.randint(57, 59)
        argv = ["verify", check, "--steps", str(steps)]
        ops.append({"op": "cli", "argv": argv, "expect": {"check": check, "kmax": steps}})
    for figure in _FIGURES:
        resolution = rng.randint(195, 205)
        rows = _figure_rows(figure, resolution)
        argv = ["figure", "--figure", figure, "--resolution", str(resolution)]
        sample = sorted(rng.sample(range(rows), 8))
        expect = {"figure": figure, "resolution": resolution, "rows": rows, "sample": sample}
        ops.append({"op": "cli", "argv": argv, "expect": expect})
    grid = default_grid()
    for j in range(_POWER_LEVELS):
        k = max(1, round(_jitter(rng, 10.0 * 1000.0 ** (j / (_POWER_LEVELS - 1)), 0.02)))
        alpha_i, beta = rng.choice(grid)
        fn = "r_power" if j % 4 == 3 else "block_power"
        ops.append({"op": "power", "fn": fn, "alpha_i": alpha_i, "beta": beta, "k": k})
    return ops


def generate(workload, seed):
    """The seeded op sequence of one pass over ``workload``."""
    rng = _rng(workload, seed)
    ops = {"trajectory": _trajectory, "certify": _certify, "blocks": _blocks}[workload](rng)
    rng.shuffle(ops)
    return ops


def digest(ops):
    """sha256 of the canonical JSON of the generated inputs."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a message.


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_run(op, path):
    expect = op["expect"]
    header, data = _read_csv(path)
    steps = expect["steps"]
    if header != ["k", "distance", "averaged_distance"]:
        return f"header {header}"
    if data.shape != (steps + 1, 3):
        return f"shape {data.shape}, expected {(steps + 1, 3)}"
    if not np.array_equal(data[:, 0], np.arange(steps + 1)):
        return "k column is not 0..K"
    if not np.all(np.isfinite(data)):
        return "non-finite rows"
    if expect["eps"] is not None and not data[-1, 2] <= expect["eps"] * data[0, 1]:
        return f"averaged distance {data[-1, 2]!r} > eps * start {expect['eps'] * data[0, 1]!r}"
    return None


def check_report(op, path):
    with open(path) as fh:
        last = fh.read().rstrip("\n").split("\n")[-1]
    expect = op["expect"]
    if "summary" in expect:
        return None if last == expect["summary"] else f"summary {last!r}"
    m = re.match(rf"{expect['check']}: grid=(\d+) kmax=(\d+) violations=0 .* PASS$", last)
    if not m or int(m.group(1)) != SWEEP_GRID_POINTS or int(m.group(2)) != expect["kmax"]:
        return f"summary {last!r}"
    return None


def _hbm(a, b):
    return np.array([[0.0, 1.0], [-b, 1.0 + b - a]])


def _nag(a, b):
    return np.array([[0.0, 1.0], [-b * (1.0 - a), (1.0 + b) * (1.0 - a)]])


def _rho(block):
    return float(np.max(np.abs(np.linalg.eigvals(block))))


def check_figure(op, path):
    expect = op["expect"]
    figure, resolution = expect["figure"], expect["resolution"]
    _, data = _read_csv(path)
    if data.shape[0] != expect["rows"]:
        return f"{data.shape[0]} rows, expected {expect['rows']}"
    limit = {"fig3": 0.1, "fig5-analogue": 1.0}.get(figure, 2.0)
    per_alpha = 1 if figure in ("fig3", "fig4-right") else len(_BETAS)
    for i in expect["sample"]:
        row = data[i]
        alpha = limit * (i // per_alpha + 1) / resolution
        if row[0] != alpha:
            return f"row {i}: alpha_i {row[0]!r}, expected {alpha!r}"
        if figure == "fig3":
            got = row[1:]
            want = [_rho(_hbm(alpha, b)) for b in (0.1, 0.5, 0.9)]
        elif figure == "fig4-right":
            got, want = row[1:], [(1.0 - math.sqrt(alpha)) ** 2]
        elif figure == "fig4-left":
            if not 1.0 <= row[2] <= 20.0:
                return f"row {i}: clamped cond {row[2]!r} outside [1, 20]"
            continue
        else:
            beta = _BETAS[i % len(_BETAS)]
            block = _hbm(alpha, beta) if figure == "fig2" else _nag(alpha, beta)
            if row[1] != beta:
                return f"row {i}: beta {row[1]!r}, expected {beta!r}"
            got, want = row[2:], [_rho(block)]
        if not np.allclose(got, want, rtol=1e-6, atol=1e-6):
            return f"row {i}: {list(got)} != eigvals {want}"
    return None


# Below the smallest normal float64 a power carries no relative precision:
# deep powers whose true entries underflow come back as subnormal rounding
# residue, which the transient bound cannot be held to.
_LOG_UNDERFLOW = math.log(sys.float_info.min)


def _log_transient_bound(rho, k):
    """log of 2 rho^{k-1} (k+1), the bound power_norm_bound evaluates. Taken
    in log space because rho**(k-1) underflows to 0.0 long before k = 1e4."""
    if rho == 0.0:
        return math.log(2.0 * (k + 1)) if k == 1 else -math.inf
    return math.log(2.0) + (k - 1) * math.log(rho) + math.log(k + 1.0)


def check_power(op, spec, result):
    """block_power against matrix_power for k <= 100 and the transient bound
    ||block^k|| <= 2 rho^{k-1} (k+1); r_power likewise, with the bound halved."""
    k = op["k"]
    block = _hbm(op["alpha_i"], op["beta"])
    eig = sorted(np.linalg.eigvals(block), key=lambda z: (z.real, z.imag))
    ours = sorted([spec.lambda_plus, spec.lambda_minus], key=lambda z: (z.real, z.imag))
    if max(abs(x - y) for x, y in zip(eig, ours)) > 1e-6:
        return f"eigenvalues {ours} != eigvals {eig}"
    log_bound = _log_transient_bound(spec.rho, k)
    if op["fn"] == "block_power":
        reference = block
    else:
        reference = np.array([[spec.lambda_plus, 1.0], [0.0, spec.lambda_minus]])
        log_bound -= math.log(2.0)
    if k <= 100 and not np.allclose(result, np.linalg.matrix_power(reference, k), rtol=1e-9, atol=1e-14):
        return f"{op['fn']} differs from matrix_power at k={k}"
    norm = float(np.linalg.norm(result, 2))
    if norm > 0.0 and not math.log(norm) <= max(log_bound, _LOG_UNDERFLOW):
        return f"log ||{op['fn']}|| = {math.log(norm)!r} > log bound {log_bound!r} at k={k}"
    return None
