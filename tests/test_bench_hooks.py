"""Guard for the benchmark's tracer: every name it wraps or reads must exist.

``perfbench/spans.py`` records per-layer spans by wrapping momlab functions
under the names their calling modules imported them. A renamed or removed
name silently turns the metrics it feeds into ``null``, so this test fails
first. The file is loaded by path and not modified.
"""

import importlib
import importlib.util
import inspect
import json
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


def test_traced_cli_ops_record_every_span(tmp_path, capsys):
    # A hook that stops resolving, that the op no longer calls through its
    # hooked name, or whose count extractor raises on a changed call, turns
    # the benchmark's per-layer metrics into null.
    from momlab.cli import main

    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "spectrum": [1.0, 50.0], "method": "hbm", "num_steps": 5,
        "params": {"source": "explicit", "alpha": 0.03, "beta": 0.5},
    }))
    ops = [
        (["run", "--config", str(config), "--out", str(tmp_path / "run.csv")],
         {"problems.build", "methods.run", "cli.write_csv"}),
        (["verify", "thm1", "--cond", "30", "--eps", "0.03", "--seeds", "2"],
         {"verify.theorem", "problems.build", "methods.run", "methods.params",
          "complexity.budget"}),
        (["verify", "norm-bound", "--steps", "3"],
         {"verify.sweep", "spectral.analyze", "verify.log_power_norms"}),
        (["verify", "schur", "--steps", "3"],
         {"verify.sweep", "spectral.schur", "spectral.norm2x2", "verify.log_power_norms"}),
        (["figure", "--figure", "fig4-left", "--resolution", "5",
          "--out", str(tmp_path / "fig4-left.csv")],
         {"verify.clamped_eigvec_condition", "spectral.eigvec_condition", "spectral.analyze",
          "cli.write_csv"}),
    ]
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        for argv, expected in ops:
            assert main(argv) == 0
            recorded = {span[1] for span in tracer.drain()}
            assert expected <= recorded, argv
    finally:
        tracer.uninstall()
    assert tracer.missing_spans == set()
