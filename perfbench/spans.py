"""Spans at momlab's module boundaries, recorded from outside the package.

The tracer wraps public functions under the names their calling module
imported them (``momlab.cli.run``, ``momlab.verify.analyze_hbm``, ...), so
nothing under ``src/`` changes. Spans are kept in memory as tuples

    (span_id, name, start_ns, end_ns, parent_id, thread_ident, extra)

and analysed per op. A span opened on a thread with no open span of its own
(a ``verify`` pool worker) has parent 0; the analysis attributes it by time
to the innermost span of the op's own thread that was open when it started.
Self time is a span's duration minus the *union* of its children's
intervals, so children that overlap on two worker threads are not
subtracted twice.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict


def _dimension(args, kwargs, result):
    return result.dimension


def _run_coords(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    num_steps = args[3] if len(args) > 3 else kwargs["num_steps"]
    return num_steps, num_steps * problem.dimension


def _budget_steps(args, kwargs, result):
    return result.budget


def _power_k(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["k"]


def _length(args, kwargs, result):
    return len(result)


def _theorem_cells(args, kwargs, result):
    return len(result.lines) - 1  # every line but the summary is one cell


def _sweep_shape(signature):
    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grid = bound.arguments["grid"]
        return (None if grid is None else len(grid)), bound.arguments["kmax"]

    return count


def _csv_size(args, kwargs, result):
    path, rows = args[0], args[2]
    return len(rows), os.path.getsize(path)


# (module, attribute, span name, count extractor). A count extractor turns
# (args, kwargs, result) into the work count recorded with the span. Hooks
# that feed no metric of their own keep library time out of cli.self_s.
HOOKS = (
    ("momlab.cli", "make_rotated_problem", "problems.build", _dimension),
    ("momlab.cli", "make_diagonal_problem", "problems.build", _dimension),
    ("momlab.verify", "make_diagonal_problem", "problems.build", _dimension),
    ("momlab.problems", "random_orthogonal", "problems.rotation", None),
    ("momlab.cli", "run", "methods.run", _run_coords),
    ("momlab.verify", "run", "methods.run", _run_coords),
    ("momlab.cli", "theorem1_params", "methods.params", None),
    ("momlab.cli", "theorem2_params", "methods.params", None),
    ("momlab.verify", "theorem1_params", "methods.params", None),
    ("momlab.verify", "theorem2_params", "methods.params", None),
    ("momlab.cli", "theorem1_budget", "complexity.budget", _budget_steps),
    ("momlab.cli", "theorem2_budget", "complexity.budget", _budget_steps),
    ("momlab.verify", "theorem1_budget", "complexity.budget", _budget_steps),
    ("momlab.verify", "theorem2_budget", "complexity.budget", _budget_steps),
    ("momlab.cli", "analyze_hbm", "spectral.analyze", None),
    ("momlab.cli", "analyze_nag", "spectral.analyze", None),
    ("momlab.verify", "analyze_hbm", "spectral.analyze", None),
    ("momlab.cli", "double_root_beta", "spectral.double_root_beta", None),
    ("momlab.verify", "schur_factors", "spectral.schur", None),
    ("momlab.verify", "spectral_norm_2x2", "spectral.norm2x2", None),
    ("momlab.verify", "eigvec_condition", "spectral.eigvec_condition", None),
    ("momlab.verify", "parameter_grid", "spectral.parameter_grid", _length),
    ("momlab.spectral", "block_power", "spectral.block_power", _power_k),
    ("momlab.cli", "verify_theorem", "verify.theorem", _theorem_cells),
    ("momlab.cli", "verify_norm_bound", "verify.sweep", "sweep"),
    ("momlab.cli", "verify_schur", "verify.sweep", "sweep"),
    ("momlab.cli", "clamped_eigvec_condition", "verify.clamped_eigvec_condition", None),
    ("momlab.verify", "log_power_norms", "verify.log_power_norms", None),
    ("momlab.cli", "_write_csv", "cli.write_csv", _csv_size),
)

# Names that are read, not wrapped, but whose absence makes metrics missing.
REQUIRED = (("momlab.verify", "thread_cap"),)

OP_CLI = "op.cli"
OP_LIBRARY = "op.library"


class Tracer:
    """Installs span-recording wrappers on HOOKS and collects their spans."""

    def __init__(self, hooks=HOOKS, required=REQUIRED):
        self.hooks = []
        self.missing = []
        for module_name, attr, name, count in hooks:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self.hooks.append((module, attr, name, count))
            else:
                self.missing.append(f"{module_name}.{attr}")
        for module_name, attr in required:
            if not hasattr(importlib.import_module(module_name), attr):
                self.missing.append(f"{module_name}.{attr}")
        self.missing_spans = {
            name for module_name, attr, name, _ in hooks if f"{module_name}.{attr}" in self.missing
        }
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def install(self):
        for module, attr, name, count in self.hooks:
            original = getattr(module, attr)
            if count == "sweep":
                count = _sweep_shape(inspect.signature(original))
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, count):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = None
            if count is not None:
                try:
                    extra = count(args, kwargs, result)
                except Exception:  # a changed signature must not fail the op
                    self.missing_spans.add(name)
            parent = stack[-1] if stack else 0
            spans.append((span_id, name, start, end, parent, ident(), extra))
            return result

        return wrapper

    def call(self, name, fn, *args):
        """Run one op as a root span; returns (result, start_ns, end_ns)."""
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, 0, threading.get_ident(), None))
        return result, start, end

    def drain(self):
        spans, self.spans[:] = list(self.spans), []
        return spans


def union_length(intervals, lo, hi):
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span, children):
    """Duration of ``span`` not covered by any of ``children``."""
    start, end = span[2], span[3]
    return (end - start) - union_length([(c[2], c[3]) for c in children], start, end)


def children_of(spans, main_thread):
    """Map span id -> direct children, adopting parentless worker spans.

    A parentless span on another thread than ``main_thread`` is adopted by
    the latest-starting ``main_thread`` span whose interval contains its start.
    """
    own = sorted((s for s in spans if s[5] == main_thread), key=lambda s: s[2])
    starts = [s[2] for s in own]
    children = defaultdict(list)
    for span in spans:
        parent = span[4]
        if parent == 0 and span[5] != main_thread:
            i = bisect.bisect_right(starts, span[2]) - 1
            while i >= 0 and own[i][3] < span[2]:
                i -= 1
            parent = own[i][0] if i >= 0 else 0
        if parent:
            children[parent].append(span)
    return children


class PassTotals:
    """Per-name busy time, calls and counts, plus self times, for one pass."""

    def __init__(self):
        self.ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.count2 = defaultdict(int)
        self.verify_self_ns = 0
        self.cli_self_ns = 0
        self.sweep_points = 0
        self.power_products = 0

    def add_op(self, spans, main_thread):
        children = children_of(spans, main_thread)
        for span in spans:
            span_id, name, start, end, _, _, extra = span
            self.ns[name] += end - start
            self.calls[name] += 1
            if isinstance(extra, tuple):
                first, second = extra
                self.count[name] += first or 0
                self.count2[name] += second
            elif extra is not None:
                self.count[name] += extra
            kids = children.get(span_id, ())
            if name in ("verify.theorem", "verify.sweep"):
                self.verify_self_ns += self_time(span, kids)
            if name == OP_CLI:
                library = [c for c in kids if not c[1].startswith("cli.")]
                self.cli_self_ns += self_time(span, library)
            if name == "verify.sweep" and extra is not None:
                points, kmax = extra
                if points is None:
                    points = sum(c[6] for c in kids if c[1] == "spectral.parameter_grid")
                self.sweep_points += points
                self.power_products += points * kmax

    def metrics(self):
        s = lambda name: self.ns[name] * 1e-9  # noqa: E731
        coord_steps = self.count2["methods.run"]
        csv_rows = self.count["cli.write_csv"]
        return {
            "problems.build_s": s("problems.build"),
            "problems.rotation_s": s("problems.rotation"),
            "problems.build_calls": self.calls["problems.build"],
            "problems.build_coords": self.count["problems.build"],
            "methods.run_s": s("methods.run"),
            "methods.run_calls": self.calls["methods.run"],
            "methods.coord_steps": coord_steps,
            "methods.ns_per_coord_step": self.ns["methods.run"] / coord_steps if coord_steps else 0.0,
            "complexity.budget_s": s("complexity.budget"),
            "complexity.budget_calls": self.calls["complexity.budget"],
            "complexity.budget_steps": self.count["complexity.budget"],
            "spectral.analyze_s": s("spectral.analyze"),
            "spectral.analyze_calls": self.calls["spectral.analyze"],
            "spectral.schur_s": s("spectral.schur"),
            "spectral.norm2x2_s": s("spectral.norm2x2"),
            "spectral.norm2x2_calls": self.calls["spectral.norm2x2"],
            "spectral.block_power_s": s("spectral.block_power"),
            "spectral.block_power_calls": self.calls["spectral.block_power"],
            "spectral.block_power_k": self.count["spectral.block_power"],
            "verify.theorem_s": s("verify.theorem"),
            "verify.theorem_cells": self.count["verify.theorem"],
            "verify.sweep_s": s("verify.sweep"),
            "verify.sweep_points": self.sweep_points,
            "verify.power_products": self.power_products,
            "verify.log_power_norms_s": s("verify.log_power_norms"),
            "verify.self_s": self.verify_self_ns * 1e-9,
            "cli.self_s": self.cli_self_ns * 1e-9,
            "cli.csv_rows": csv_rows,
            "cli.csv_bytes": self.count2["cli.write_csv"],
            "cli.us_per_row": self.ns["cli.write_csv"] * 1e-3 / csv_rows if csv_rows else 0.0,
        }


# Per-layer metric -> (unit, better, span names or required names it reads).
# A metric is reported missing (null) when a hook feeding it no longer exists.
_ALL_SPANS = frozenset(name for _, _, name, _ in HOOKS)
LAYER_METRICS = {
    "problems.build_s": ("s", "lower", {"problems.build"}),
    "problems.rotation_s": ("s", "lower", {"problems.rotation"}),
    "problems.build_calls": ("count", "lower", {"problems.build"}),
    "problems.build_coords": ("count", "lower", {"problems.build"}),
    "methods.run_s": ("s", "lower", {"methods.run"}),
    "methods.run_calls": ("count", "lower", {"methods.run"}),
    "methods.coord_steps": ("count", "lower", {"methods.run"}),
    "methods.ns_per_coord_step": ("ns", "lower", {"methods.run"}),
    "complexity.budget_s": ("s", "lower", {"complexity.budget"}),
    "complexity.budget_calls": ("count", "lower", {"complexity.budget"}),
    "complexity.budget_steps": ("count", "lower", {"complexity.budget"}),
    "spectral.analyze_s": ("s", "lower", {"spectral.analyze"}),
    "spectral.analyze_calls": ("count", "lower", {"spectral.analyze"}),
    "spectral.schur_s": ("s", "lower", {"spectral.schur"}),
    "spectral.norm2x2_s": ("s", "lower", {"spectral.norm2x2"}),
    "spectral.norm2x2_calls": ("count", "lower", {"spectral.norm2x2"}),
    "spectral.block_power_s": ("s", "lower", {"spectral.block_power"}),
    "spectral.block_power_calls": ("count", "lower", {"spectral.block_power"}),
    "spectral.block_power_k": ("count", "lower", {"spectral.block_power"}),
    "verify.theorem_s": ("s", "lower", {"verify.theorem"}),
    "verify.theorem_cells": ("count", "higher", {"verify.theorem"}),
    "verify.sweep_s": ("s", "lower", {"verify.sweep"}),
    "verify.sweep_points": ("count", "higher", {"verify.sweep", "spectral.parameter_grid"}),
    "verify.power_products": ("count", "higher", {"verify.sweep", "spectral.parameter_grid"}),
    "verify.log_power_norms_s": ("s", "lower", {"verify.log_power_norms"}),
    "verify.self_s": ("s", "lower", {"verify.theorem", "verify.sweep"}),
    "verify.threads": ("count", "higher", {"momlab.verify.thread_cap"}),
    "verify.pool_gain": ("ratio", "higher", {"momlab.verify.thread_cap"}),
    "cli.self_s": ("s", "lower", _ALL_SPANS),
    "cli.csv_rows": ("count", "lower", {"cli.write_csv"}),
    "cli.csv_bytes": ("count", "lower", {"cli.write_csv"}),
    "cli.us_per_row": ("us", "lower", {"cli.write_csv"}),
    "trace_overhead_frac": ("frac", "lower", set()),
}
