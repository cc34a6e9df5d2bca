"""Command-line front end: trajectory runs, figure-data CSV emitters, and
verification reports.

Exit codes: 0 = success/verified, 2 = a verification check failed,
3 = precondition or configuration error. CSV files are byte-deterministic
for a fixed config and seed: header row, comma separators, "\\n" line ends,
floats printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .complexity import theorem1_budget, theorem2_budget
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    InvalidSpectrumError,
    NotPositiveDefiniteError,
    PreconditionError,
    SingularMatrixError,
)
from .methods import (
    MethodKind,
    MethodParams,
    run,
    theorem1_params,
    theorem2_params,
)
from .problems import (
    DiagonalSpectrum,
    EigenBounds,
    _as_vector,
    make_diagonal_problem,
    make_rotated_problem,
)
from .seeding import ROTATION_STREAM, X0_STREAM, stream_seed
from .spectral import _GRID_BETAS, analyze_hbm, analyze_nag, double_root_beta
from .verify import (
    clamped_eigvec_condition,
    verify_norm_bound,
    verify_schur,
    verify_theorem,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_CONFIG = 3

# Largest (num_steps + 1) * n a run may store: run keeps every iterate, so
# this caps its memory at a few arrays of 8 * MAX_RUN_VALUES bytes.
MAX_RUN_VALUES = 20_000_000

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4-left", "fig4-right", "fig5-analogue")
VERIFY_IDS = ("thm1", "thm2", "norm-bound", "schur")

_METHOD_NAMES = {kind.value: kind for kind in MethodKind}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the config-error code on bad usage."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _convert(name: str, value, to):
    """``to(value)`` for config field ``name``; a failed conversion is a ConfigError."""
    try:
        return to(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {name!r}: {exc}") from exc


def _floats(value) -> np.ndarray:
    values = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"entries must be finite numbers, got {value!r}")
    return values


# ---------------------------------------------------------------------------
# run


@dataclass
class RunConfig:
    spectrum: list[float] | None = None
    n: int | None = None
    cond: float | None = None
    spectrum_law: str | None = None
    method: str | None = None
    source: str = "explicit"
    alpha: float | None = None
    beta: float | None = None
    x0: object = "random-unit"
    num_steps: int | None = None
    eps: float | None = None
    out: str = "run.csv"
    seed: int = 0
    rotate: bool = False
    shift: list[float] | None = None


# RunConfig fields read from the nested "params" object; the rest are top-level keys.
_PARAMS_FIELDS = ("source", "alpha", "beta")
_TOP_LEVEL_FIELDS = tuple(f.name for f in fields(RunConfig) if f.name not in _PARAMS_FIELDS)
_RUN_KEYS = {*_TOP_LEVEL_FIELDS, "params"}


def _load_run_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    unknown = sorted(set(raw) - _RUN_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config fields: {', '.join(unknown)}")

    cfg = RunConfig()
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}: field 'params' must be an object")
    unknown = sorted(set(params) - set(_PARAMS_FIELDS))
    if unknown:
        raise ConfigError(f"{path}: unknown fields in 'params': {', '.join(unknown)}")
    cfg.source = params.get("source", "explicit")
    cfg.alpha = params.get("alpha")
    cfg.beta = params.get("beta")
    for key in _TOP_LEVEL_FIELDS:
        if key in raw:
            setattr(cfg, key, raw[key])
    return cfg


def _validate_run_config(cfg: RunConfig) -> RunConfig:
    law_fields = (cfg.n is not None, cfg.cond is not None, cfg.spectrum_law is not None)
    if cfg.spectrum is not None:
        if any(law_fields):
            raise ConfigError("field 'spectrum' excludes 'n'/'cond'/'spectrum_law'")
    elif not all(law_fields):
        raise ConfigError("need either field 'spectrum' or all of 'n', 'cond', 'spectrum_law'")
    if cfg.spectrum_law is not None and cfg.spectrum_law not in ("two-point", "log-uniform"):
        raise ConfigError(f"field 'spectrum_law' must be two-point or log-uniform, got {cfg.spectrum_law!r}")

    if cfg.source not in ("explicit", "theorem1", "theorem2"):
        raise ConfigError(f"field 'params.source' must be explicit/theorem1/theorem2, got {cfg.source!r}")
    if cfg.source == "explicit":
        if cfg.alpha is None or cfg.beta is None:
            raise ConfigError("explicit parameter source needs fields 'params.alpha' and 'params.beta'")
        if cfg.method is None:
            raise ConfigError("explicit parameter source needs field 'method'")
    elif cfg.alpha is not None or cfg.beta is not None:
        raise ConfigError("theorem parameter sources exclude 'params.alpha'/'params.beta'")

    if cfg.method is not None and not (isinstance(cfg.method, str) and cfg.method in _METHOD_NAMES):
        raise ConfigError(f"field 'method' must be one of {sorted(_METHOD_NAMES)}, got {cfg.method!r}")
    if cfg.source == "theorem1" and cfg.method not in (None, "mm", "hbm"):
        raise ConfigError("theorem1 parameters apply to methods 'mm'/'hbm'")
    if cfg.source == "theorem2" and cfg.method not in (None, "nag", "nag-compact"):
        raise ConfigError("theorem2 parameters apply to methods 'nag'/'nag-compact'")

    if (cfg.num_steps is None) == (cfg.eps is None):
        raise ConfigError("need exactly one of fields 'num_steps' and 'eps'")
    if cfg.eps is not None and cfg.source == "explicit":
        raise ConfigError("field 'eps' termination needs a theorem parameter source")
    if cfg.n is not None and not _is_int(cfg.n):
        raise ConfigError(f"field 'n' must be an integer, got {cfg.n!r}")
    if cfg.num_steps is not None and (not _is_int(cfg.num_steps) or cfg.num_steps < 1):
        raise ConfigError(f"field 'num_steps' must be an integer >= 1, got {cfg.num_steps!r}")
    if not _is_int(cfg.seed):
        raise ConfigError(f"field 'seed' must be an integer, got {cfg.seed!r}")
    if not isinstance(cfg.out, str):
        raise ConfigError(f"field 'out' must be a path string, got {cfg.out!r}")
    if not isinstance(cfg.rotate, bool):
        raise ConfigError(f"field 'rotate' must be true or false, got {cfg.rotate!r}")

    if not isinstance(cfg.x0, (list, str)):
        raise ConfigError("field 'x0' must be a vector or the string 'random-unit'")
    if isinstance(cfg.x0, str) and cfg.x0 != "random-unit":
        raise ConfigError(f"field 'x0' string form must be 'random-unit', got {cfg.x0!r}")
    return cfg


def _spectrum_from_config(cfg: RunConfig) -> DiagonalSpectrum:
    if cfg.spectrum is not None:
        return DiagonalSpectrum(_convert("spectrum", cfg.spectrum, _floats))
    n, cond = cfg.n, _convert("cond", cfg.cond, float)
    if n < 2:
        raise ConfigError(f"field 'n' must be >= 2 for a spectrum law, got {n}")
    if cond < 1.0:
        raise ConfigError(f"field 'cond' must be >= 1, got {cond}")
    if cfg.spectrum_law == "two-point":
        values = [1.0] * (n - n // 2) + [cond] * (n // 2)
    else:
        values = np.geomspace(1.0, cond, n)
    return DiagonalSpectrum(values)


def _predicted_rho(params: MethodParams, bounds: EigenBounds) -> float:
    """max_i rho(block_i) over the spectrum of one run.

    Block rho is largest at an end of the alpha_i interval for both
    families, so the two ends alpha*lower and alpha*upper decide it.
    """
    ends = (params.alpha * bounds.lower, params.alpha * bounds.upper)
    if params.kind in (MethodKind.NAG_TWO_SEQUENCE, MethodKind.NAG_COMPACT):
        return max(analyze_nag(a, params.beta).rho for a in ends)
    with warnings.catch_warnings():
        # the heavy-ball block is defined past alpha_i = 2; its rho decides
        warnings.simplefilter("ignore")
        return max(analyze_hbm(a, params.beta, strict=False).rho for a in ends)


def _cmd_run(args) -> int:
    if args.config is None:
        raise ConfigError("run requires --config")
    cfg = _load_run_config(args.config)
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.steps is not None:
        cfg.num_steps, cfg.eps = args.steps, None
    cfg = _validate_run_config(cfg)

    spectrum = _spectrum_from_config(cfg)
    bounds = EigenBounds.from_spectrum(spectrum)
    if cfg.source == "theorem1":
        params = theorem1_params(bounds)
        if cfg.method == "mm":
            params = MethodParams(params.alpha, params.beta, MethodKind.MM)
    elif cfg.source == "theorem2":
        params = theorem2_params(bounds)
        if cfg.method == "nag-compact":
            params = MethodParams(params.alpha, params.beta, MethodKind.NAG_COMPACT)
    else:
        try:
            params = MethodParams(float(cfg.alpha), float(cfg.beta), _METHOD_NAMES[cfg.method])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"fields 'params.alpha'/'params.beta': {exc}") from exc
        rho = _predicted_rho(params, bounds)
        if not rho < 1.0:
            raise ConfigError(
                f"predicted spectral radius rho={_fmt(rho)} >= 1 at alpha={_fmt(params.alpha)}"
                f" beta={_fmt(params.beta)}: the iteration does not converge"
            )

    if cfg.num_steps is not None:
        num_steps = cfg.num_steps
    else:
        budget_of = theorem1_budget if cfg.source == "theorem1" else theorem2_budget
        num_steps = budget_of(bounds.cond_bar, _convert("eps", cfg.eps, float)).budget
    if (num_steps + 1) * spectrum.n > MAX_RUN_VALUES:
        raise ConfigError(
            f"run of K={num_steps} steps at n={spectrum.n} would store"
            f" {(num_steps + 1) * spectrum.n} values, above MAX_RUN_VALUES={MAX_RUN_VALUES}"
        )

    if cfg.rotate:
        shift = np.zeros(spectrum.n) if cfg.shift is None else _convert("shift", cfg.shift, _floats)
        problem = make_rotated_problem(spectrum, stream_seed(cfg.seed, ROTATION_STREAM), shift)
    else:
        if cfg.shift is not None:
            raise ConfigError("field 'shift' needs 'rotate': true")
        problem = make_diagonal_problem(spectrum)

    if isinstance(cfg.x0, str):
        rng = np.random.default_rng(stream_seed(cfg.seed, X0_STREAM))
        v = rng.standard_normal(problem.dimension)
        x0 = problem.x_star + v / np.linalg.norm(v)
    else:
        # one start: run would take a (batch, n) stack, the CSV cannot
        x0 = _as_vector(_convert("x0", cfg.x0, _floats), problem.dimension, "x0")

    with np.errstate(over="ignore", invalid="ignore"):
        traj = run(problem, params, x0, num_steps)
        dist, avg = traj.distances, traj.averaged_distances()
    finite = np.isfinite(dist) & np.isfinite(avg)
    if not finite.all():
        raise ConfigError(
            f"distance to the minimizer is not a finite float64 at step {int(np.argmin(finite))}:"
            " x0 or shift is too large"
        )
    rows = [(k, dist[k], avg[k]) for k in range(num_steps + 1)]
    _write_csv(cfg.out, ["k", "distance", "averaged_distance"], rows)
    print(
        f"run: method={params.kind.value} alpha={_fmt(params.alpha)} beta={_fmt(params.beta)}"
        f" steps={num_steps} final_distance={_fmt(dist[-1])}"
        f" averaged_distance={_fmt(avg[-1])} out={cfg.out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure


_FIGURE_CURVE_BETAS = (0.1, 0.5, 0.9)


def _alpha_axis(limit: float, resolution: int, open_end: bool) -> list[float]:
    top = resolution - 1 if open_end else resolution
    return [limit * j / resolution for j in range(1, top + 1)]


def _figure_rows(figure_id: str, resolution: int, steps: int):
    if figure_id == "fig1":
        problem = make_diagonal_problem([1.0, 100.0])
        params = MethodParams(1.9 / 100.0, 0.85, MethodKind.HBM)
        starts = ([0.01, 1.0], [1.0, 1.0], [100.0, 1.0])
        trajs = [run(problem, params, x0, steps) for x0 in starts]
        header = ["k", "dist_x0_1", "dist_x0_2", "dist_x0_3"]
        rows = [(k, *(t.distances[k] for t in trajs)) for k in range(steps + 1)]
        return header, rows
    if figure_id == "fig2":
        rows = [
            (a, b, analyze_hbm(a, b).rho)
            for a in _alpha_axis(2.0, resolution, open_end=False)
            for b in _GRID_BETAS
        ]
        return ["alpha_i", "beta", "rho"], rows
    if figure_id == "fig3":
        rows = [
            (a, *(analyze_hbm(a, b).rho for b in _FIGURE_CURVE_BETAS))
            for a in _alpha_axis(0.1, resolution, open_end=True)
        ]
        return ["alpha_i", "rho_beta_0.1", "rho_beta_0.5", "rho_beta_0.9"], rows
    if figure_id == "fig4-left":
        rows = [
            (a, b, clamped_eigvec_condition(a, b))
            for a in _alpha_axis(2.0, resolution, open_end=False)
            for b in _GRID_BETAS
        ]
        return ["alpha_i", "beta", "cond_s_clamped"], rows
    if figure_id == "fig4-right":
        rows = [(a, double_root_beta(a)) for a in _alpha_axis(2.0, resolution, open_end=False)]
        return ["alpha_i", "beta"], rows
    # fig5-analogue: spectral-radius surface of the accelerated-gradient
    # block on its admissible step range a_i in (0, 1].
    rows = [
        (a, b, analyze_nag(a, b).rho)
        for a in _alpha_axis(1.0, resolution, open_end=False)
        for b in _GRID_BETAS
    ]
    return ["alpha_i", "beta", "rho"], rows


def _cmd_figure(args) -> int:
    if args.figure is None:
        raise ConfigError("figure requires --figure <id>")
    if args.figure not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {args.figure!r}; known: {', '.join(FIGURE_IDS)}")
    out = args.out if args.out is not None else f"{args.figure}.csv"
    header, rows = _figure_rows(args.figure, args.resolution, args.steps)
    if not rows:
        raise ConfigError(f"figure {args.figure} has no rows at resolution {args.resolution}")
    _write_csv(out, header, rows)
    print(f"figure: id={args.figure} rows={len(rows)} out={out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    conds = args.cond or [28.0, 100.0, 1000.0]
    if args.check in ("thm1", "thm2"):
        eps_values = args.eps or [1.0 / max(conds)]
        report = verify_theorem(
            1 if args.check == "thm1" else 2,
            conds,
            eps_values,
            num_seeds=args.seeds,
            master_seed=args.seed or 0,
            budget_override=args.steps,
        )
    elif args.check == "norm-bound":
        report = verify_norm_bound(kmax=args.steps or 200)
    else:
        report = verify_schur(kmax=args.steps or 200)

    text = report.text()
    print(text)
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            fh.write(text + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# params


def _cmd_params(args) -> int:
    if args.cond is not None:
        if len(args.cond) != 1:
            raise ConfigError("params takes a single --cond value")
        bounds = EigenBounds(1.0, args.cond[0])
    elif args.lower is not None and args.upper is not None:
        bounds = EigenBounds(args.lower, args.upper)
    else:
        raise ConfigError("params requires --cond C or both --lower and --upper")
    if args.eps is None or len(args.eps) != 1:
        raise ConfigError("params requires a single --eps value")
    eps = args.eps[0]

    for which, params_of, budget_of in (
        (1, theorem1_params, theorem1_budget),
        (2, theorem2_params, theorem2_budget),
    ):
        p = params_of(bounds)
        r = budget_of(bounds.cond_bar, eps)
        print(
            f"theorem{which}: method={p.kind.value} alpha={_fmt(p.alpha)}"
            f" beta={_fmt(p.beta)} K={r.budget} rho_asymptotic={_fmt(r.rho_asymptotic)}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="momlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run one trajectory to CSV")
    p_run.add_argument("--config", help="JSON run configuration")
    p_run.add_argument("--out", help="output CSV path (overrides config)")
    p_run.add_argument("--seed", type=int, help="master seed (overrides config)")
    p_run.add_argument("--steps", type=_positive_int, help="step count (overrides config)")
    p_run.set_defaults(func=_cmd_run)

    p_fig = sub.add_parser("figure", help="emit figure-data CSV")
    p_fig.add_argument("--figure", help=f"one of {', '.join(FIGURE_IDS)}")
    p_fig.add_argument("--resolution", type=_positive_int, default=100, help="alpha_i samples")
    p_fig.add_argument("--steps", type=_positive_int, default=100, help="trajectory length for fig1")
    p_fig.add_argument("--out", help="output CSV path")
    p_fig.set_defaults(func=_cmd_figure)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("check", choices=VERIFY_IDS)
    p_ver.add_argument("--cond", type=_float_list, help="comma-separated cond values")
    p_ver.add_argument("--eps", type=_float_list, help="comma-separated eps values")
    p_ver.add_argument("--seeds", type=_positive_int, default=20, help="starts per (cond, eps) cell")
    p_ver.add_argument("--seed", type=int, help="master seed")
    p_ver.add_argument("--steps", type=_positive_int, help="override budget / power sweep length")
    p_ver.add_argument("--out", help="also write the report to this path")
    p_ver.set_defaults(func=_cmd_verify)

    p_par = sub.add_parser("params", help="print both parameter rules")
    p_par.add_argument("--cond", type=_float_list, help="condition bound (lower=1)")
    p_par.add_argument("--lower", type=float, help="spectrum lower bound")
    p_par.add_argument("--upper", type=float, help="spectrum upper bound")
    p_par.add_argument("--eps", type=_float_list, help="target reduction")
    p_par.set_defaults(func=_cmd_params)

    return parser


_CONFIG_ERRORS = (
    ConfigError,
    PreconditionError,
    DomainError,
    InvalidSpectrumError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    DimensionMismatchError,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"momlab: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"momlab: i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
