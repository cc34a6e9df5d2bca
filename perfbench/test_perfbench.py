"""Tests of the benchmark's own statistics, span analysis and inputs."""

import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, count = run.tail(range(1, 101))
    assert (value, percentile, count) == (90, 90.0, 100)
    assert sum(s > value for s in range(1, 101)) == 10
    value, percentile, count = run.tail([5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 8.0, 7.0, 6.0, 11.0, 10.0])
    assert (value, count) == (1.0, 11)
    assert percentile == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        run.tail(range(10))


def _span(span_id, start, end, parent=0, thread=1, name="x"):
    return (span_id, name, start, end, parent, thread, None)


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span(1, 0, 100)
    children = [_span(2, 10, 50, thread=2), _span(3, 30, 70, thread=3), _span(4, 60, 80, thread=2)]
    assert spans.union_length([(c[2], c[3]) for c in children], 0, 100) == 70
    assert spans.self_time(parent, children) == 30
    # children reaching outside the parent count only inside it
    assert spans.self_time(parent, [_span(5, -10, 20), _span(6, 90, 120)]) == 70


def test_parentless_worker_spans_are_adopted_by_time():
    op = _span(1, 0, 100, thread=1)
    sweep = _span(2, 10, 90, parent=1, thread=1)
    before = _span(3, 2, 8, parent=1, thread=1)
    worker = _span(4, 20, 60, thread=7)
    children = spans.children_of([worker, before, sweep, op], main_thread=1)
    assert children[1] == [before, sweep]
    assert children[2] == [worker]


def test_tracer_records_pool_spans_and_reports_missing_hooks(monkeypatch):
    fake = types.ModuleType("fake_layer")

    def sweep(xs):
        with ThreadPoolExecutor(2) as pool:
            return list(pool.map(fake.leaf, xs))

    fake.leaf, fake.sweep = (lambda x: x * 2), sweep
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    hooks = (
        ("fake_layer", "sweep", "verify.sweep_fake", None),
        ("fake_layer", "leaf", "spectral.leaf", None),
        ("fake_layer", "gone", "spectral.gone", None),
    )
    tracer = spans.Tracer(hooks=hooks, required=(("fake_layer", "also_gone"),))
    assert tracer.missing == ["fake_layer.gone", "fake_layer.also_gone"]
    assert tracer.missing_spans == {"spectral.gone"}

    tracer.install()
    try:
        result, start, end = tracer.call("op.cli", fake.sweep, [1, 2, 3, 4])
    finally:
        tracer.uninstall()
    assert result == [2, 4, 6, 8]
    assert fake.leaf(3) == 6 and not hasattr(fake.leaf, "__wrapped__")

    recorded = tracer.drain()
    assert tracer.drain() == []
    by_name = {}
    for s in recorded:
        by_name.setdefault(s[1], []).append(s)
    (op,), (sweep,), leaves = by_name["op.cli"], by_name["verify.sweep_fake"], by_name["spectral.leaf"]
    assert sweep[4] == op[0] and len(leaves) == 4
    children = spans.children_of(recorded, threading.get_ident())
    assert sorted(children[sweep[0]]) == sorted(leaves)
    assert 0 <= spans.self_time(sweep, leaves) <= sweep[3] - sweep[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    first = workloads.digest(workloads.generate(workload, 3))
    assert workloads.digest(workloads.generate(workload, 3)) == first
    assert workloads.digest(workloads.generate(workload, 4)) != first


def test_eps_runs_are_checked_with_zero_slack(tmp_path):
    op = {"expect": {"steps": 2, "eps": 0.5}}
    path = tmp_path / "run.csv"
    for final, ok in ((0.5, True), (float(np.nextafter(0.5, 1.0)), False)):
        path.write_text(f"k,distance,averaged_distance\n0,1,1\n1,0.9,0.95\n2,0.4,{final!r}\n")
        assert (workloads.check_run(op, str(path)) is None) == ok


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()
    }
