"""Guard for the benchmark's tracer: every name it wraps or reads must exist.

``perfbench/spans.py`` records per-layer spans by wrapping momlab functions
under the names their calling modules imported them. A renamed or removed
name silently turns the metrics it feeds into ``null``, so this test fails
first. The file is loaded by path and not modified.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
NAMES = [(module, attr) for module, attr, _, _ in SPANS.HOOKS] + list(SPANS.REQUIRED)


@pytest.mark.parametrize("module_name, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_traced_name_resolves(module_name, attr):
    assert hasattr(importlib.import_module(module_name), attr)


def test_sweep_hooks_take_grid_and_kmax():
    sweeps = [(m, a) for m, a, _, count in SPANS.HOOKS if count == "sweep"]
    assert sweeps
    for module_name, attr in sweeps:
        params = inspect.signature(getattr(importlib.import_module(module_name), attr)).parameters
        assert {"grid", "kmax"} <= set(params), f"{module_name}.{attr}"


def test_tracer_reports_nothing_missing():
    assert SPANS.Tracer().missing == []
