"""momlab benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload {trajectory,certify,blocks}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; momlab is imported from ``src/``.
The load is a closed loop with one client: one op at a time, each one
in-process ``momlab.cli.main(argv)`` call or one direct library call. A run
makes the workload's op sequence from the seed, checks every op's output,
and repeats the sequence for a number of passes fixed by ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics (see README.md). The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. Op outputs go to a scratch directory under ``.perfbench/`` that is
removed at exit; the spans of the first traced pass are written to
``.perfbench/spans-<workload>.json.gz``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# Seconds one pass takes on a 2-CPU x86 box at the commit that introduced the
# benchmark. A run makes round(seconds / nominal) passes, so the sample count,
# and with it the tail percentile, depends on --seconds only, not on noise.
NOMINAL_PASS_S = {"trajectory": 3.2, "certify": 4.4, "blocks": 2.5}
MIN_PASSES = 3
SETUP_STARTS = 9
TAIL_BEYOND = 10

E2E_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "passed_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Figures from ROADMAP item 1, reproduced (not gated) in traced runs.
ROADMAP = {
    "make_rotated_problem n=500": 1.0,
    "verify norm-bound, 1 thread": 2.2,
    "verify norm-bound, 2 threads": 4.0,
    "block_power k=1e4": 0.021,
}


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count): the value is the
    (beyond+1)-th largest sample, the nearest-rank percentile
    100 * (n - beyond) / n.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_setup():
    """Median wall time of a fresh interpreter importing momlab.cli."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-c", "import momlab.cli"]
    start = lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)  # noqa: E731
    return _median_time(start, SETUP_STARTS)


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _invoke(fn, *args):
    """Call one op; an exception or exit becomes its result, never the run's."""
    try:
        return fn(*args)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # recorded as this op's failure; the run goes on
        return exc


class Runner:
    """Runs and checks the ops of one workload in a scratch directory."""

    def __init__(self, ops, tmp):
        from momlab import cli, spectral

        self.cli, self.spectral = cli, spectral
        self.ops, self.tmp = ops, tmp
        self.attempted = 0
        self.failures = []  # (op index, message)
        self.hashes = {}  # op index -> sha256 of its CSV or report text
        self.hash_changes = []
        self.specs = {}
        for i, op in enumerate(ops):
            if op["op"] == "power":
                self.specs[i] = spectral.analyze_hbm(op["alpha_i"], op["beta"])
            elif "config" in op:
                with open(self._path(i, "json"), "w") as fh:
                    json.dump(op["config"], fh)

    def _path(self, i, ext):
        return os.path.join(self.tmp, f"op{i}.{ext}")

    def argv(self, i):
        op = self.ops[i]
        argv = op["argv"] + ["--out", self._path(i, "out")]
        if "config" in op:
            argv += ["--config", self._path(i, "json")]
        return argv

    def run_op(self, i, tracer=None):
        """Run op ``i``, check it, and return its wall time in seconds."""
        op = self.ops[i]
        if op["op"] == "power":
            fn = getattr(self.spectral, op["fn"])  # looked up per call: may be wrapped
            name, args = spans.OP_LIBRARY, (fn, self.specs[i], op["k"])
        else:
            name, args = spans.OP_CLI, (self.cli.main, self.argv(i))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                start = time.perf_counter_ns()
                result = _invoke(*args)
                end = time.perf_counter_ns()
            else:
                result, start, end = tracer.call(name, _invoke, *args)
        self.attempted += 1
        try:
            message = self._check(i, result, sink.getvalue())
        except Exception as exc:  # a malformed output is a failed op
            message = f"check raised {type(exc).__name__}: {exc}"
        if message is not None:
            self.failures.append((i, message))
        return (end - start) * 1e-9

    def _check(self, i, result, output):
        op, w = self.ops[i], workloads
        if op["op"] == "power":
            if isinstance(result, Exception):
                return f"raised {type(result).__name__}: {result}"
            return w.check_power(op, self.specs[i], result)
        if result != 0:
            return f"exit code {result!r}: {output.strip()[-300:]}"
        path = self._path(i, "out")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.hashes.setdefault(i, digest) != digest:
            self.hash_changes.append(i)
        check = {"run": w.check_run, "figure": w.check_figure, "verify": w.check_report}
        return check[op["argv"][0]](op, path)

    def warm_up(self):
        """One op of each kind, so lazy first-call costs stay out of the passes."""
        seen = set()
        for i, op in enumerate(self.ops):
            kind = op.get("fn") or " ".join(op["argv"][:2])
            if kind not in seen:
                seen.add(kind)
                self.run_op(i)

    def run_pass(self, tracer=None, totals=None, dump=None):
        """One pass over the ops; returns the op times. With a tracer, every
        op's spans are added to ``totals`` (and kept in ``dump``)."""
        times = []
        main_thread = threading.get_ident()
        for i in range(len(self.ops)):
            times.append(self.run_op(i, tracer))
            if tracer is not None:
                recorded = tracer.drain()
                totals.add_op(recorded, main_thread)
                if dump is not None:
                    dump.extend(recorded)
        return times


def end_to_end(runner, workload, passes):
    samples, walls = [], []
    for _ in range(passes):
        times = runner.run_pass()
        samples.extend(times)
        walls.append(sum(times))
    tail_ms, tail_pct, count = tail([t * 1e3 for t in samples])
    attempted = runner.attempted
    failed_frac = len(runner.failures) / attempted
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail_ms,
        "passed_frac": 1.0 - failed_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "op_tail_percentile": tail_pct, "op_samples": count, "failed_frac": failed_frac,
        "pass_wall_s": walls,
    }
    return metrics, detail


def _norm_bound_time(runner, threads):
    """Wall time of `momlab verify norm-bound` at its default 200 steps."""
    op = {"op": "cli", "argv": ["verify", "norm-bound"], "expect": {"check": "norm-bound", "kmax": 200}}
    runner.ops.append(op)
    saved = os.environ.pop("MOMLAB_THREADS", None)
    if threads is not None:
        os.environ["MOMLAB_THREADS"] = str(threads)
    try:
        return runner.run_op(len(runner.ops) - 1)
    finally:
        runner.ops.pop()
        os.environ.pop("MOMLAB_THREADS", None)
        if saved is not None:
            os.environ["MOMLAB_THREADS"] = saved


def layered(runner, workload, passes, tracer):
    """Alternate plain and traced passes; per-layer medians and indicatives."""
    from momlab import problems, spectral

    plain, traced, per_pass, dump = [], [], [], []
    for p in range(passes):
        for traced_now in ((False, True) if p % 2 == 0 else (True, False)):
            if not traced_now:
                plain.append(sum(runner.run_pass()))
                continue
            totals = spans.PassTotals()
            tracer.install()
            try:  # only the first traced pass is kept for the span file
                traced.append(sum(runner.run_pass(tracer, totals, None if per_pass else dump)))
            finally:
                tracer.uninstall()
            per_pass.append(totals.metrics())

    one, default = _norm_bound_time(runner, 1), _norm_bound_time(runner, None)
    missing = set(tracer.missing) | tracer.missing_spans
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    verify = sys.modules["momlab.verify"]
    metrics["verify.threads"] = verify.thread_cap() if hasattr(verify, "thread_cap") else None
    metrics["verify.pool_gain"] = one / default
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    for name, (_, _, sources) in spans.LAYER_METRICS.items():
        if sources & missing:
            metrics[name] = None

    measured = {"verify norm-bound, 1 thread": one, "verify norm-bound, 2 threads": default}
    if workload == "trajectory":
        eigs = [10.0 ** (3.0 * i / 499) for i in range(500)]
        measured["make_rotated_problem n=500"] = _median_time(
            lambda: problems.make_rotated_problem(eigs, 1, [0.0] * 500), 3)
    if workload == "blocks":
        spec = spectral.analyze_hbm(0.3, 0.5)
        measured["block_power k=1e4"] = _median_time(lambda: spectral.block_power(spec, 10_000), 5)
    indicative = {
        name: {"measured_s": t, "roadmap_s": ROADMAP[name], "reproduced": 2 / 3 <= t / ROADMAP[name] <= 1.5}
        for name, t in measured.items()
    }
    indicative["norm-bound pool gain (1 thread / 2 threads)"] = {
        "measured": one / default, "roadmap": 2.2 / 4.0,
        "reproduced": one / default < 1.0,
    }
    SCRATCH.mkdir(exist_ok=True)
    with gzip.open(SCRATCH / f"spans-{workload}.json.gz", "wt") as fh:
        json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "thread", "extra"],
                   "spans": dump}, fh)
    detail = {
        "missing": sorted(missing), "traced_passes": len(traced),
        "plain_wall_s": statistics.median(plain), "traced_wall_s": statistics.median(traced),
        "indicative": indicative,
    }
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "momlab" / "__init__.py").is_file():
        print(f"perfbench: no momlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("MOMLAB_THREADS", None)  # measure the default configuration
    sys.path.insert(0, str(SRC))
    import momlab

    if Path(momlab.__file__).resolve().parent != SRC / "momlab":
        print(f"perfbench: momlab imported from {momlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    digest = workloads.digest(ops)
    if workloads.digest(workloads.generate(args.workload, args.seed)) != digest:
        print("perfbench: input generation is not deterministic", file=sys.stderr)
        return 2
    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        passes = max(2, math.ceil(passes / 2))
    from momlab import verify

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": digest, "ops_per_pass": len(ops), "passes": passes,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": git_commit(),
        "thread_cap": verify.thread_cap() if hasattr(verify, "thread_cap") else None,
    }

    setup_s = None if args.trace else measure_setup()
    SCRATCH.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        runner = Runner(ops, tmp)
        runner.warm_up()
        if args.trace:
            metrics, detail = layered(runner, args.workload, passes, spans.Tracer())
            units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
        else:
            metrics, detail = end_to_end(runner, args.workload, passes)
            metrics["setup_s"] = setup_s
            units = E2E_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    detail.update(
        failures=[f"op {i}: {msg}" for i, msg in runner.failures[:20]],
        output_sha256={str(i): h for i, h in sorted(runner.hashes.items())},
        output_hash_changes=sorted(set(runner.hash_changes)),
    )
    print(f"perfbench {args.workload}: " + json.dumps(context))
    for name, unit in units.items():
        value = metrics[name]
        print(f"  {name:<28} {'missing' if value is None else format(value, '.6g')} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':<28} {detail['failed_frac']:.6g} frac")
        print(f"  op_tail_ms is p{detail['op_tail_percentile']:.4g} of {detail['op_samples']} op samples")
    print("detail: " + json.dumps(detail))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
