import contextlib
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momlab.cli
import momlab.errors
import momlab.methods
from momlab.cli import (
    FIGURE_IDS,
    VERIFY_IDS,
    _build_parser,
    _figure_rows,
    _figure_shape,
    _repeated_texts,
    _write_csv,
    main,
)
from momlab.errors import MAX_RUN_VALUES
from momlab.methods import MethodKind, MethodParams, run
from momlab.problems import make_diagonal_problem
from momlab.verify import verify_norm_bound, verify_theorem

from conftest import reference_chunked_write_csv, reference_write_csv


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def _write_config(path, **overrides):
    cfg = {
        "spectrum": [1, 100],
        "method": "hbm",
        "params": {"source": "explicit", "alpha": 1.9 / 100.0, "beta": 0.85},
        "x0": [1.0, 1.0],
        "num_steps": 100,
        "out": str(path.parent / "run.csv"),
        "seed": 7,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_run_figure_setup(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    header, rows = _read_csv(tmp_path / "run.csv")
    assert header == ["k", "distance", "averaged_distance"]
    assert rows.shape == (101, 3)
    d = rows[:, 1]
    assert np.any(d[1:] > d[:-1])  # non-monotone
    assert d[-1] < d[0]
    assert "final_distance" in capsys.readouterr().out


def test_run_from_minimizer_is_all_zero(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, x0=[0.0, 0.0], num_steps=10)
    assert main(["run", "--config", str(cfg_path)]) == 0
    _, rows = _read_csv(tmp_path / "run.csv")
    assert np.array_equal(rows[:, 1], np.zeros(11))


def test_run_theorem1_budget_steps(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(
        cfg_path,
        params={"source": "theorem1"},
        method="hbm",
        x0="random-unit",
        num_steps=None,
        eps=0.01,
    )
    cfg = json.loads(cfg_path.read_text())
    del cfg["num_steps"]
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    _, rows = _read_csv(tmp_path / "run.csv")
    assert rows.shape[0] == 77  # K = 76 steps plus the starting row
    assert rows[-1, 2] <= 0.01 * rows[0, 1]


def test_run_csv_byte_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, x0="random-unit", seed=123)
    assert main(["run", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "run.csv").read_bytes()
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "run.csv").read_bytes() == first
    # a different seed changes the start
    assert main(["run", "--config", str(cfg_path), "--seed", "124"]) == 0
    assert (tmp_path / "run.csv").read_bytes() != first


def test_run_flag_overrides_steps(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    assert main(["run", "--config", str(cfg_path), "--steps", "12"]) == 0
    _, rows = _read_csv(tmp_path / "run.csv")
    assert rows.shape[0] == 13


def test_run_theorem_source_method_override(tmp_path, capsys):
    # theorem rules accept the equivalent iteration forms by name
    cfg_path = tmp_path / "cfg.json"
    _write_config(
        cfg_path, params={"source": "theorem1"}, method="mm",
        x0="random-unit", num_steps=20,
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert "method=mm" in capsys.readouterr().out
    _write_config(
        cfg_path, params={"source": "theorem2"}, method="nag-compact",
        x0="random-unit", num_steps=20,
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert "method=nag-compact" in capsys.readouterr().out


def test_run_rotated_spectrum_law(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = {
        "n": 6,
        "cond": 100,
        "spectrum_law": "log-uniform",
        "params": {"source": "theorem2"},
        "x0": "random-unit",
        "eps": 0.01,
        "rotate": True,
        "out": str(tmp_path / "rot.csv"),
        "seed": 5,
    }
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    _, rows = _read_csv(tmp_path / "rot.csv")
    assert rows.shape[0] == 108  # theorem-2 budget K = 107
    assert rows[-1, 2] <= 0.01


@pytest.mark.parametrize("source", ["theorem1", "theorem2"])
def test_rotated_run_meets_eps_below_the_dense_rounding_floor(tmp_path, source):
    # At c = 1e6, eps = 1e-13 and |x*| = 8.6, forming Hx - b near x* leaves a
    # rounding floor hundreds of times above eps; the eigenbasis iteration
    # measures the error itself and meets eps (K = 43,314 and 61,255 steps).
    n = 10
    cfg = {
        "n": n,
        "cond": 1e6,
        "spectrum_law": "log-uniform",
        "params": {"source": source},
        "x0": "random-unit",
        "eps": 1e-13,
        "rotate": True,
        "shift": [8.6 / np.sqrt(n)] * n,
        "out": str(tmp_path / "run.csv"),
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
    _, rows = _read_csv(tmp_path / "run.csv")
    assert rows.shape[0] == (43315 if source == "theorem1" else 61256)
    assert rows[-1, 2] <= 1e-13 * rows[0, 1]


@settings(deadline=None, max_examples=40)
@given(
    j=st.integers(-30, 30),
    upper=st.floats(28.0, 1e3),
    inner=st.lists(st.floats(0.0, 1.0), max_size=4),
    source=st.sampled_from(["theorem1", "theorem2"]),
    rotate=st.booleans(),
)
def test_run_csv_is_invariant_to_power_of_two_scaling(
    tmp_path_factory, j, upper, inner, source, rotate
):
    # the theorem rules set alpha from 1/upper and beta and K from the
    # condition number, so scaling the spectrum by 2^j leaves alpha * H, the
    # budget and every iterate unchanged bit for bit
    tmp = tmp_path_factory.mktemp("scaled")
    spectrum = [1.0, *(1.0 + u * (upper - 1.0) for u in inner), upper]
    csv = []
    for scale in (1.0, 2.0**j):
        cfg = {
            "spectrum": [v * scale for v in spectrum],
            "params": {"source": source},
            "x0": "random-unit",
            "eps": 1.0 / upper,
            "rotate": rotate,
            "seed": 11,
            "out": str(tmp / f"{scale!r}.csv"),
        }
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp / "cfg.json")]) == 0
        csv.append((tmp / f"{scale!r}.csv").read_bytes())
    assert csv[0] == csv[1]


JSON_NULL = object()  # a patch value written as JSON null; None deletes the key


@pytest.mark.parametrize(
    "patch",
    [
        {"num_steps": None, "eps": None},
        {"eps": 0.01},  # both terminations
        {"spectrum": None},  # no problem definition
        {"method": "warp"},
        {"params": {"source": "theorem1"}, "method": "nag"},
        {"params": {"source": "explicit", "alpha": 0.1}},
        {"x0": "random"},
        {"shift": [1.0, 2.0]},  # shift without rotate
        {"num_steps": True},  # a bool is not a step count
        {"spectrum": [1.0, "a hundred"]},
        {"x0": [1.0, "one"]},
        {"seed": 1.5},
        {"params": {"source": "explicit", "alpha": "fast", "beta": 0.85}},
        {"params": {"source": "explicit", "alpha": -0.1, "beta": 0.85}},
        {"x0": [1.0, None]},
        {"spectrum": None, "n": 4, "cond": "big", "spectrum_law": "two-point"},
        {"rotate": True, "shift": [0.0, None]},
        {"method": ["hbm"]},  # not a method name
        {"out": JSON_NULL},
        {"rotate": "no"},  # only a JSON bool selects rotation
        {"x0": [[1.0, 1.0]]},  # one start, not a stack
        {  # a finite shift whose linear term H @ shift overflows
            "spectrum": None, "n": 3, "cond": 100, "spectrum_law": "log-uniform",
            "rotate": True, "shift": [1e308, 1e308, 1e308], "x0": "random-unit",
        },
        {"spectrum": None, "n": 5.7, "cond": 100, "spectrum_law": "two-point"},
        {"spectrum": None, "n": "7", "cond": 100, "spectrum_law": "two-point"},
        {"params": {"source": "explicit", "alpha": 0.01, "beta": 0.5, "gamma": 3}},
        # float fields take JSON numbers only: not a bool, not a numeric string
        {"params": {"source": "theorem1"}, "num_steps": None, "eps": True},
        {"spectrum": None, "n": 4, "cond": "100", "spectrum_law": "two-point", "x0": None,
         "params": {"source": "theorem1"}, "num_steps": None, "eps": "1e-3"},
        {"spectrum": [1, "2"]},
    ],
)
def test_run_config_validation_errors(tmp_path, patch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = _write_config(cfg_path)
    cfg.update(patch)
    cfg = {k: (None if v is JSON_NULL else v) for k, v in cfg.items() if v is not None}
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("momlab: error: ") and err.count("\n") == 1
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"params": {"source": "theorem1"}, "num_steps": None, "eps": True},
         "field 'eps' must be a number, got True"),
        ({"spectrum": None, "n": 4, "cond": "100", "spectrum_law": "two-point", "x0": None,
          "params": {"source": "theorem1"}, "num_steps": None, "eps": "1e-3"},
         "field 'cond' must be a number, got '100'"),
        ({"params": {"source": "theorem1"}, "num_steps": None, "eps": "1e-3"},
         "field 'eps' must be a number, got '1e-3'"),
        ({"params": {"source": "explicit", "alpha": False, "beta": 0.85}},
         "field 'params.alpha' must be a number, got False"),
        ({"params": {"source": "explicit", "alpha": 0.019, "beta": "0.85"}},
         "field 'params.beta' must be a number, got '0.85'"),
        ({"spectrum": [1, "2"]}, "field 'spectrum' must be a list of numbers, got '2' at index 1"),
        ({"spectrum": 100}, "field 'spectrum' must be a list of numbers, got 100"),
        ({"rotate": True, "shift": [0.0, True]},
         "field 'shift' must be a list of numbers, got True at index 1"),
        ({"x0": ["1", 1.0]}, "field 'x0' must be a list of numbers, got '1' at index 0"),
        ({"x0": [[1.0, 1.0]]}, "field 'x0' must be a list of numbers, got [1.0, 1.0] at index 0"),
        # a JSON integer past float64
        ({"spectrum": None, "n": 4, "cond": 10**400, "spectrum_law": "two-point",
          "x0": None},
         "field 'cond': int too large to convert to float"),
        ({"spectrum": [1, 10**400]}, "field 'spectrum': int too large to convert to float"),
    ],
)
def test_run_refuses_float_fields_that_are_not_float64_numbers_before_building(
    tmp_path, capsys, monkeypatch, patch, message
):
    # formerly a bool ran as 0 or 1, a numeric string as its number, and an
    # integer past float64 ended in an OverflowError traceback
    def refuse(*args, **kwargs):
        raise AssertionError("built before the config was validated")

    for name in ("_checked_spectrum", "make_diagonal_problem", "make_rotated_problem", "run"):
        monkeypatch.setattr(momlab.cli, name, refuse)
    cfg_path = tmp_path / "cfg.json"
    cfg = _write_config(cfg_path)
    cfg.update(patch)
    cfg_path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == f"momlab: error: {message}\n"
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "source, method, family",
    [
        ("theorem1", "nag", "'mm'/'hbm'"),
        ("theorem1", "nag-compact", "'mm'/'hbm'"),
        ("theorem2", "mm", "'nag'/'nag-compact'"),
        ("theorem2", "hbm", "'nag'/'nag-compact'"),
    ],
)
def test_run_refuses_a_method_outside_the_rules_family(tmp_path, capsys, source, method, family):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, method=method, params={"source": source})
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == (
        f"momlab: error: {source} parameters apply to methods {family}\n"
    )


# Values of the wrong type or out of range for any field. None as a value
# writes JSON null. Where a field sets a size the magnitudes stay small, or
# so large that the size guard refuses the run: an n above MAX_RUN_VALUES / 2
# stores more than MAX_RUN_VALUES values in any run of K >= 1 steps.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.sampled_from([MAX_RUN_VALUES // 2 + 1, 30000000000, 2**63, 10**30]),
    st.floats(-20.0, 20.0),
    st.sampled_from([0.0, -1.0, 1e308, -1e308, float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-1, 3), st.text(max_size=1)), max_size=3),
    st.just({"k": 1}),
)
_TOP_FIELDS = (
    "spectrum", "n", "cond", "spectrum_law", "method", "x0", "num_steps", "eps",
    "out", "seed", "rotate", "shift", "params",
)
_PARAM_FIELDS = ("source", "alpha", "beta")


@st.composite
def _fuzzed_run_configs(draw):
    """A small valid run config with up to three fields replaced or removed."""
    cfg = {}
    if draw(st.booleans()):
        cfg["spectrum"] = draw(st.lists(st.floats(0.5, 1e3), min_size=1, max_size=20))
        dim = len(cfg["spectrum"])
    else:
        dim = draw(st.integers(2, 20))
        law = draw(st.sampled_from(["two-point", "log-uniform"]))
        cfg.update(n=dim, cond=draw(st.floats(1.0, 1e3)), spectrum_law=law)
    source = draw(st.sampled_from(["explicit", "theorem1", "theorem2"]))
    cfg["params"] = {"source": source}
    if source == "explicit":
        cfg["params"].update(alpha=draw(st.floats(1e-4, 0.1)), beta=draw(st.floats(0.0, 0.99)))
        cfg["method"] = draw(st.sampled_from(["mm", "hbm", "nag", "nag-compact"]))
    else:
        cfg["method"] = draw(st.sampled_from(
            ["mm", "hbm"] if source == "theorem1" else ["nag", "nag-compact"]
        ))
    if source != "explicit" and draw(st.booleans()):
        cfg["eps"] = draw(st.floats(1e-4, 0.05))
    else:
        cfg["num_steps"] = draw(st.integers(1, 50))
    entries = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([1e308, -1e308, 5e-324]))
    vector = st.lists(entries, min_size=dim, max_size=dim)
    cfg["x0"] = draw(st.one_of(st.just("random-unit"), vector))
    cfg["rotate"] = draw(st.booleans())
    if cfg["rotate"] and draw(st.booleans()):
        cfg["shift"] = draw(vector)
    cfg["seed"] = draw(st.integers(-(2**70), 2**70))

    names = draw(st.lists(st.sampled_from(_TOP_FIELDS + _PARAM_FIELDS), max_size=3, unique=True))
    for name in names:
        target = cfg.get("params") if name in _PARAM_FIELDS else cfg
        if not isinstance(target, dict):
            continue
        if draw(st.booleans()):
            target.pop(name, None)
            continue
        # a string "out" would be a path outside the scratch directory
        junk = _JUNK.filter(lambda v: not isinstance(v, str)) if name == "out" else _JUNK
        target[name] = draw(junk)
    return cfg


@settings(deadline=None, max_examples=100)
@given(cfg=_fuzzed_run_configs())
def test_run_config_fuzz_exits_0_or_3_without_a_traceback(tmp_path_factory, cfg):
    tmp = tmp_path_factory.mktemp("fuzz")
    out = tmp / "run.csv"
    if cfg.get("out", "") == "":
        cfg["out"] = str(out)
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", "--config", str(tmp / "cfg.json")])
    err = stderr.getvalue()
    assert code in (0, 3), err
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("momlab: error: ") and err.count("\n") == 1, err
        assert not out.exists()
    else:
        _, rows = _read_csv(out)
        assert rows.shape[0] >= 2
        assert np.isfinite(rows).all()


@pytest.mark.parametrize(
    "method, alpha, beta",
    [
        ("nag", 0.019, 0.5),  # alpha*upper = 1.9: NAG rho = 1.63
        ("nag-compact", 0.019, 0.5),
        ("hbm", 0.031, 0.5),  # alpha*upper = 3.1 > 2 (1 + beta)
        ("mm", 0.02, 0.0),  # rho = 1 exactly: gradient descent at alpha*upper = 2
    ],
)
def test_run_refuses_a_diverging_explicit_rule(tmp_path, capsys, recwarn, method, alpha, beta):
    cfg_path = tmp_path / "cfg.json"
    _write_config(
        cfg_path, method=method, params={"source": "explicit", "alpha": alpha, "beta": beta},
        num_steps=2000,
    )
    assert main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("momlab: error: predicted spectral radius rho=") and err.count("\n") == 1
    assert not (tmp_path / "run.csv").exists()
    assert len(recwarn) == 0


def test_run_accepts_a_converging_heavy_ball_step_past_two(tmp_path, recwarn):
    # alpha*upper = 2.5 lies outside the analysed (0, 2] but below 2 (1 + beta)
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, params={"source": "explicit", "alpha": 0.025, "beta": 0.5})
    assert main(["run", "--config", str(cfg_path)]) == 0
    _, rows = _read_csv(tmp_path / "run.csv")
    assert rows[-1, 1] < rows[0, 1]
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "patch, argv, steps, n",
    [
        (  # the budget for eps = 1e-300 at cond 1e11
            {"spectrum": None, "n": 100, "cond": 1e11, "spectrum_law": "log-uniform",
             "params": {"source": "theorem2"}, "method": "nag", "num_steps": None,
             "eps": 1e-300, "x0": "random-unit"},
            [], 437323190, 100,
        ),
        ({}, ["--steps", "10000000"], 10000000, 2),
    ],
)
def test_run_refuses_a_run_too_large_to_store(tmp_path, capsys, monkeypatch, patch, argv, steps, n):
    import momlab.cli

    def no_allocation(*args, **kwargs):
        raise AssertionError("the refusal must come before any problem or run is built")

    for name in ("run", "make_diagonal_problem", "make_rotated_problem"):
        monkeypatch.setattr(momlab.cli, name, no_allocation)
    cfg_path = tmp_path / "cfg.json"
    cfg = _write_config(cfg_path)
    cfg.update(patch)
    cfg_path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    assert (steps + 1) * n > MAX_RUN_VALUES
    assert main(["run", "--config", str(cfg_path), *argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("momlab: error: ") and err.count("\n") == 1
    assert f"K={steps} " in err and f"n={n} " in err
    assert not (tmp_path / "run.csv").exists()


def test_run_refuses_a_rotation_too_large_to_store(tmp_path, capsys, monkeypatch):
    # (num_steps + 1) * n is small, but the n * n values a rotation is charged are not
    import momlab.cli

    def no_allocation(*args, **kwargs):
        raise AssertionError("the refusal must come before any problem or run is built")

    for name in ("run", "make_diagonal_problem", "make_rotated_problem"):
        monkeypatch.setattr(momlab.cli, name, no_allocation)
    n = 4473
    assert n * n > MAX_RUN_VALUES >= 2 * n
    cfg_path = tmp_path / "cfg.json"
    cfg = _write_config(cfg_path, spectrum=None, n=n, cond=1e4, spectrum_law="log-uniform",
                        rotate=True, num_steps=1, x0="random-unit",
                        params={"source": "theorem1"})
    cfg_path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    assert main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("momlab: error: rotated run of K=1 steps at n=4473 ")
    assert err.count("\n") == 1 and f" {n * n} values" in err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("law", ["two-point", "log-uniform"])
@pytest.mark.parametrize("n", [10**30, 30000000000, MAX_RUN_VALUES // 2 + 1])
def test_run_refuses_a_spectrum_law_too_large_to_store_before_building_it(
    tmp_path, capsys, monkeypatch, law, n
):
    # formerly the law's values came first: n = 10**30 ended in an
    # OverflowError or ValueError traceback, n = 3e10 in a MemoryError
    def no_allocation(*args, **kwargs):
        raise AssertionError("the refusal must come before the spectrum is built")

    for name in ("_checked_spectrum", "make_diagonal_problem", "make_rotated_problem", "run"):
        monkeypatch.setattr(momlab.cli, name, no_allocation)
    monkeypatch.setattr(momlab.cli.np, "geomspace", no_allocation)
    cfg_path = tmp_path / "cfg.json"
    cfg = _write_config(cfg_path, spectrum=None, n=n, cond=100, spectrum_law=law,
                        num_steps=1, x0="random-unit", params={"source": "theorem1"})
    cfg_path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == (
        f"momlab: error: run of K=1 steps at n={n} would store {2 * n} values,"
        f" above MAX_RUN_VALUES={MAX_RUN_VALUES}\n"
    )
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("law", ["two-point", "log-uniform"])
@pytest.mark.parametrize("cond", [float("inf"), float("nan")])
def test_run_refuses_a_spectrum_law_at_a_cond_that_is_not_finite(tmp_path, capsys, law, cond):
    # a small law lists its values in the refusal, as before; a huge one
    # meets the size guard instead of a traceback
    small = [1.0, 1.0, cond, cond] if law == "two-point" else [1.0, cond, cond, cond]
    cfg_path = tmp_path / "cfg.json"
    for n, message in (
        (4, f"all eigenvalues must be finite and strictly positive, got {small}"),
        (10**30, f"{law} spectrum at n={10**30} would store {10**30} values,"
                 f" above MAX_RUN_VALUES={MAX_RUN_VALUES}"),
    ):
        cfg = _write_config(cfg_path, spectrum=None, n=n, cond=cond, spectrum_law=law,
                            num_steps=1, x0="random-unit", params={"source": "theorem1"})
        cfg_path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
        with np.errstate(invalid="ignore"):  # geomspace(1, inf) warns
            assert main(["run", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err == f"momlab: error: {message}\n"
        assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("law", ["two-point", "log-uniform"])
def test_an_infinite_cond_is_refused_in_one_line_without_a_warning(tmp_path, capsys, law):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"n": 5, "cond": float("inf"), "spectrum_law": law, "params": {"source": "theorem1"},
         "eps": 0.01}
    ))
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("momlab: error: all eigenvalues must be finite and strictly positive")


@pytest.mark.parametrize("rotate", [False, True])
def test_run_pairs_spectrum_entry_i_with_x0_entry_i(tmp_path, rotate):
    # spectrum[i] is coordinate i's curvature and x0[i] its start, so swapping
    # both swaps the coordinates, and the norm of two is bitwise the same;
    # formerly the sort paired [100, 1] with [1, 0] as [1, 100] with [1, 0].
    # A rotated run pairs the spectrum's order with the one seeded Q.
    outputs = []
    for spectrum, x0 in (([100, 1], [1.0, 0.0]), ([1, 100], [0.0, 1.0]), ([1, 100], [1.0, 0.0])):
        cfg_path = tmp_path / "cfg.json"
        _write_config(cfg_path, spectrum=spectrum, x0=x0, rotate=rotate)
        assert main(["run", "--config", str(cfg_path)]) == 0
        outputs.append((tmp_path / "run.csv").read_bytes())
    swapped, same, other = outputs
    if not rotate:
        assert swapped == same
    assert swapped != other


@pytest.mark.parametrize(
    "detail, message",
    [
        ("Unable to allocate 298. GiB for an array with shape (200000, 200000)",) * 2,
        ("", "allocation failed"),
    ],
)
def test_run_out_of_memory_exits_3_without_a_traceback(
    tmp_path, capsys, monkeypatch, detail, message
):
    # a builder whose allocation fails stands in for any MemoryError inside a command
    import momlab.cli

    def out_of_memory(spectrum):
        assert len(spectrum) == 200000
        raise MemoryError(detail)

    monkeypatch.setattr(momlab.cli, "make_diagonal_problem", out_of_memory)
    cfg_path = tmp_path / "cfg.json"
    cfg = _write_config(cfg_path, spectrum=None, n=200000, cond=1e4, spectrum_law="log-uniform",
                        num_steps=1, x0="random-unit", params={"source": "theorem1"})
    cfg_path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == f"momlab: error: out of memory: {message}\n"
    assert not (tmp_path / "run.csv").exists()


def test_run_largest_rotated_trajectory_level_still_runs(tmp_path):
    # the largest rotated level of the benchmark's trajectory workload
    cfg_path = tmp_path / "cfg.json"
    cfg = _write_config(cfg_path, spectrum=None, n=402, cond=1e4, spectrum_law="log-uniform",
                        rotate=True, num_steps=None, eps=1e-4, method="nag", x0="random-unit",
                        params={"source": "theorem2"})
    cfg_path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    assert main(["run", "--config", str(cfg_path)]) == 0
    _, rows = _read_csv(tmp_path / "run.csv")
    assert rows[-1, 2] <= 1e-4 * rows[0, 1]


def test_run_bad_json_reports_line(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{\n  'bad': }\n")
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "line" in capsys.readouterr().err


def test_figure_fig1(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "--figure", "fig1", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["k", "dist_x0_1", "dist_x0_2", "dist_x0_3"]
    assert rows.shape == (101, 4)
    for col in (1, 2, 3):
        d = rows[:, col]
        assert np.any(d[1:] > d[:-1])
        assert d[-1] < d[0]


def test_figure_fig2_beta_zero_curve(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "--figure", "fig2", "--resolution", "50", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["alpha_i", "beta", "rho"]
    zero_beta = rows[rows[:, 1] == 0.0]
    assert len(zero_beta) == 50
    assert zero_beta[:, 2] == pytest.approx(np.abs(1.0 - zero_beta[:, 0]), abs=1e-14)


def test_figure_fig3_ordering(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["figure", "--figure", "fig3", "--resolution", "100", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["alpha_i", "rho_beta_0.1", "rho_beta_0.5", "rho_beta_0.9"]
    assert rows[:, 0].max() < 0.1
    row = rows[np.isclose(rows[:, 0], 0.004)][0]
    assert row[3] < row[2] < row[1]


def test_figure_fig4_left_clamped(tmp_path):
    out = tmp_path / "fig4l.csv"
    assert main(["figure", "--figure", "fig4-left", "--resolution", "40", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["alpha_i", "beta", "cond_s_clamped"]
    assert rows[:, 2].max() <= 20.0
    assert rows[:, 2].min() >= 1.0


def test_figure_fig4_right_residual(tmp_path):
    out = tmp_path / "fig4r.csv"
    assert main(["figure", "--figure", "fig4-right", "--resolution", "100", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["alpha_i", "beta"]
    a, b = rows[:, 0], rows[:, 1]
    residual = (1.0 + b - a) ** 2 - 4.0 * b
    assert np.abs(residual).max() <= 1e-12


def test_figure_fig5_analogue(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(["figure", "--figure", "fig5-analogue", "--resolution", "25", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["alpha_i", "beta", "rho"]
    assert rows[:, 0].max() == 1.0
    # the accelerated block is nilpotent at alpha_i = 1
    at_one = rows[rows[:, 0] == 1.0]
    assert np.array_equal(at_one[:, 2], np.zeros(len(at_one)))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm1", "--seeds", "0"],
        ["verify", "thm1", "--steps", "0"],
        ["verify", "norm-bound", "--steps", "0"],
        ["verify", "schur", "--steps", "-5"],
        ["figure", "--figure", "fig1", "--steps", "0"],
        ["figure", "--figure", "fig2", "--resolution", "0"],
        ["run", "--config", "unused.json", "--steps", "zero"],
    ],
)
def test_non_positive_counts_exit_3(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a regression must not write into the checkout
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "expected an integer >= 1" in err and err.count("\n") == 1


def test_figure_without_rows_exits_3(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert main(["figure", "--figure", "fig3", "--resolution", "1", "--out", str(out)]) == 3
    assert "no rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, rows, columns",
    [
        (["--figure", "fig2", "--resolution", "1000000"], 20000000, 3),
        (["--figure", "fig5-analogue", "--resolution", "333334"], 6666680, 3),
        (["--figure", "fig3", "--resolution", "5000002"], 5000001, 4),
        (["--figure", "fig4-right", "--resolution", "10000001"], 10000001, 2),
        (["--figure", "fig1", "--steps", "5000000"], 5000001, 4),
    ],
)
def test_figure_too_large_to_store_is_refused(tmp_path, capsys, monkeypatch, argv, rows, columns):
    import momlab.cli

    def no_allocation(*args, **kwargs):
        raise AssertionError("the refusal must come before any figure row is built")

    monkeypatch.setattr(momlab.cli, "_figure_rows", no_allocation)
    out = tmp_path / "fig.csv"
    assert rows * columns > MAX_RUN_VALUES
    assert main(["figure", *argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"momlab: error: figure {argv[1]} of {rows} rows x {columns} columns would store"
        f" {rows * columns} values, above MAX_RUN_VALUES={MAX_RUN_VALUES}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3", "fig4-left", "fig4-right", "fig5-analogue"])
def test_figure_shape_is_the_shape_of_its_rows(figure):
    header, rows = _figure_rows(figure, 7, 9)
    assert _figure_shape(figure, 7, 9) == (len(rows), len(header))
    assert {len(row) for row in rows} == {len(header)}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["norm-bound", "--steps", "10000000"], "norm-bound sweep of kmax=10000000 over 420 points"),
        (["schur", "--steps", "47620"], "schur sweep of kmax=47620 over 420 points"),
        (["thm1", "--steps", "10000000"], "thm1 run of K=10000000 steps at seeds=20 pairs=3"),
        (["thm2", "--seeds", "7", "--cond", "28,1e6", "--eps", "1e-300,1e-6"],
         "thm2 run of K=1382939 steps at seeds=7 pairs=4"),
    ],
)
def test_verify_too_large_to_store_is_refused(capsys, monkeypatch, argv, message):
    import momlab.verify

    def no_allocation(*args, **kwargs):
        raise AssertionError("the refusal must come before any sweep or run allocates")

    for name in ("run", "make_diagonal_problem", "log_power_norms", "schur_factors"):
        monkeypatch.setattr(momlab.verify, name, no_allocation)
    assert main(["verify", *argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"momlab: error: {message} would store ") and err.count("\n") == 1
    assert err.endswith(f" values, above MAX_RUN_VALUES={MAX_RUN_VALUES}\n")


def test_repeated_main_calls_match_a_fresh_parser(tmp_path, capsys):
    argvs = [
        ["params", "--cond", "100", "--eps", "0.01"],
        ["verify", "thm2", "--cond", "100", "--eps", "0.01", "--seeds", "2"],
        ["figure", "--figure", "fig3", "--resolution", "9", "--out", str(tmp_path / "a.csv")],
        ["verify", "bogus-check"],
        ["verify", "thm1", "--cond", "28", "--eps", "0.01", "--seeds", "1", "--steps", "4"],
        ["params", "--eps", "0.01"],
        ["figure", "--figure", "fig3", "--resolution", "9", "--out", str(tmp_path / "b.csv")],
        ["run"],
        ["verify", "thm1", "--seeds", "0"],
        ["params", "--lower", "2", "--upper", "200", "--eps", "0.01"],
    ]

    def outcomes(fresh):
        results = []
        for argv in argvs:
            if fresh:
                _build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    assert _build_parser() is _build_parser()
    cached = outcomes(fresh=False)
    assert [code for code, _, _ in cached] == [0, 0, 0, 3, 2, 3, 0, 3, 3, 0]
    assert outcomes(fresh=True) == cached
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_figure_unknown_id(capsys):
    assert main(["figure", "--figure", "nope"]) == 3
    assert "unknown figure id" in capsys.readouterr().err


def test_figure_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figure", "--figure", "fig2", "--resolution", "30", "--out", str(out1)]) == 0
    assert main(["figure", "--figure", "fig2", "--resolution", "30", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_thm1_passes(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    code = main([
        "verify", "thm1", "--cond", "100", "--eps", "0.01",
        "--seeds", "5", "--seed", "3", "--out", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "thm1: 5/5 cells passed" in out
    assert report_path.read_text().strip().endswith("5/5 cells passed")


def test_verify_thm2_passes(capsys):
    assert main(["verify", "thm2", "--cond", "100", "--eps", "0.01", "--seeds", "3"]) == 0
    assert "thm2: 3/3 cells passed" in capsys.readouterr().out


def test_verify_precondition_exit_code(capsys):
    assert main(["verify", "thm1", "--cond", "10", "--eps", "0.01", "--seeds", "2"]) == 3
    assert "cond_bar" in capsys.readouterr().err


def test_verify_failure_exit_code(capsys):
    # an absurdly small forced budget cannot reach the target accuracy
    code = main([
        "verify", "thm1", "--cond", "100", "--eps", "0.01",
        "--seeds", "2", "--steps", "3",
    ])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_norm_bound_and_schur(capsys):
    assert main(["verify", "norm-bound", "--steps", "60"]) == 0
    assert main(["verify", "schur", "--steps", "60"]) == 0
    out = capsys.readouterr().out
    assert "norm-bound:" in out and "schur:" in out


def test_verify_report_is_sorted_and_thread_invariant(monkeypatch):
    monkeypatch.setenv("MOMLAB_THREADS", "1")
    serial = verify_theorem(1, [100.0, 28.0], [0.01, 0.001], 4, master_seed=9)
    serial_sweep = verify_norm_bound(kmax=20)
    monkeypatch.setenv("MOMLAB_THREADS", "4")
    threaded = verify_theorem(1, [100.0, 28.0], [0.01, 0.001], 4, master_seed=9)
    assert serial.lines == threaded.lines
    assert serial_sweep.lines == verify_norm_bound(kmax=20).lines
    conds = [float(line.split("cond=")[1].split()[0]) for line in serial.lines[:-1]]
    assert conds == sorted(conds)


def test_params_output(capsys):
    assert main(["params", "--cond", "100", "--eps", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "theorem1: method=hbm alpha=0.02" in out
    assert "K=76" in out
    assert "theorem2: method=nag alpha=0.01" in out
    assert "K=107" in out


def test_params_lower_upper(capsys):
    assert main(["params", "--lower", "2", "--upper", "200", "--eps", "0.01"]) == 0
    out = capsys.readouterr().out
    assert f"alpha={2.0 / 200.0:.17g}" in out


def test_params_missing_bounds(capsys):
    assert main(["params", "--eps", "0.01"]) == 3


@pytest.mark.parametrize(
    "bounds", [["--lower", "2"], ["--upper", "56"], ["--lower", "2", "--upper", "56"]]
)
def test_params_refuses_cond_with_lower_or_upper(capsys, bounds):
    # formerly printed the rules for --cond and dropped the bounds
    assert main(["params", "--cond", "28", *bounds, "--eps", "0.01"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "momlab: error: params --cond excludes --lower/--upper\n"


def test_bad_cli_usage_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus-check"])
    assert exc.value.code == 3


# ---------------------------------------------------------------------------
# CSV writer: chunked ``%`` formatting against the former per-value writer

_CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan]),
    st.integers(-(10**20), 10**20),
)


def _written_bytes(writer, path, header, rows):
    writer(str(path), header, rows)
    return path.read_bytes()


def _tables(cells):
    """Tables of 1-5 columns and up to 20 rows whose cells ``cells`` draws."""
    return st.integers(1, 5).flatmap(
        lambda width: st.lists(st.lists(cells, min_size=width, max_size=width), max_size=20)
    )


@settings(deadline=None, max_examples=200)
@given(
    table=st.one_of(
        _tables(_CSV_VALUES),
        # cells from a pool of 1-4 values: columns that repeat their values
        st.lists(_CSV_VALUES, min_size=1, max_size=4).flatmap(
            lambda pool: _tables(st.sampled_from(pool))
        ),
    )
)
def test_csv_writer_matches_the_per_value_writer(tmp_path_factory, table):
    tmp = tmp_path_factory.mktemp("csv")
    header = [f"c{j}" for j in range(len(table[0]) if table else 1)]
    expected = _written_bytes(reference_write_csv, tmp / "ref.csv", header, table)
    assert _written_bytes(_write_csv, tmp / "rows.csv", header, table) == expected
    if table:
        array = np.array(table, dtype=float)
        assert _written_bytes(_write_csv, tmp / "array.csv", header, array) == expected


@pytest.mark.parametrize("num_rows", [0, 1, 4095, 4096, 4097])
def test_csv_writer_matches_the_per_value_writer_across_chunks(tmp_path, num_rows):
    rng = np.random.default_rng(num_rows)
    table = rng.standard_normal((num_rows, 3)) * 10.0 ** rng.integers(-300, 300, (num_rows, 3))
    table[::97, 0] = np.arange(len(table[::97]))
    header = ["k", "x", "y"]
    expected = _written_bytes(reference_write_csv, tmp_path / "ref.csv", header, table.tolist())
    assert expected.count(b"\n") == num_rows + 1
    assert _written_bytes(_write_csv, tmp_path / "rows.csv", header, table.tolist()) == expected
    assert _written_bytes(_write_csv, tmp_path / "array.csv", header, table) == expected


def _distinct(column):
    return len(np.unique(column.view(np.int64)))


@pytest.mark.parametrize("resolution", [1, 2, 200, 205])
@pytest.mark.parametrize("figure_id", ["fig2", "fig3", "fig4-left", "fig5-analogue"])
def test_csv_writer_matches_the_per_value_writer_on_figure_tables(tmp_path, figure_id, resolution):
    header, rows = _figure_rows(figure_id, resolution, 100)
    if resolution == 205 and figure_id != "fig3":
        # 4,100 rows: the chunk boundary splits the last alpha_i block
        assert len(rows) == 4100 and rows[4095, 0] == rows[4096, 0]
    expected = _written_bytes(reference_write_csv, tmp_path / "ref.csv", header, rows)
    assert _written_bytes(_write_csv, tmp_path / "out.csv", header, rows) == expected


@pytest.mark.parametrize(
    "figure_id, formatted, distinct",
    [("fig2", 916, 715), ("fig4-left", 4420, 3469), ("fig5-analogue", 4420, 3281)],
)
def test_grid_figures_format_each_repeated_value_once(figure_id, formatted, distinct):
    _, rows = _figure_rows(figure_id, 200, 100)
    assert rows.shape == (4000, 3)
    assert sum(_distinct(column) for column in rows.T) == distinct
    # a repeating column: one text per distinct value and one per zero cell
    # (200 beta = 0 cells in each figure); a value column with more than
    # 2,000 distinct values is formatted cell by cell
    cells = [
        len(set(c.tolist())) + np.count_nonzero(c == 0.0) if _repeated_texts(c) else len(c)
        for c in rows.T
    ]
    assert sum(cells) == formatted


def test_csv_writer_splices_the_texts_of_repeating_columns(tmp_path, monkeypatch):
    import momlab.cli

    def marked(column):
        return ["x"] * len(column) if column[0] == 1.0 else None

    monkeypatch.setattr(momlab.cli, "_repeated_texts", marked)
    _write_csv(str(tmp_path / "out.csv"), ["a", "b"], [[1.0, 2.0], [1.0, 3.0]])
    assert (tmp_path / "out.csv").read_text() == "a,b\nx,2\nx,3\n"


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(float)[0]


def test_csv_writer_matches_the_per_value_writer_on_repeating_special_values(tmp_path):
    nans = [_nan(0x7FF8000000000000), _nan(0x7FF8000000000001), _nan(0xFFF8000000000000),
            _nan(0x7FF0000000000001)]
    assert _distinct(np.array(nans)) == 4
    columns = {  # 16 rows each
        "zeros": [0.0, -0.0] * 8,
        "nans": nans + [2.0, 1.0] * 6,
        "infs": [np.inf, -np.inf, np.inf, np.inf] * 4,
        "tiny_huge": [5e-324, 1e308, -5e-324, -1e308] * 4,
        "at_threshold": [float(i % 8) for i in range(16)],  # 8 distinct values
        "past_threshold": [float(i % 9) for i in range(16)],  # 9 distinct values
    }
    table = np.column_stack(list(columns.values()))
    repeating = [name for name, column in zip(columns, table.T) if _repeated_texts(column)]
    assert repeating == list(columns)[:-1]
    header = list(columns)
    expected = _written_bytes(reference_write_csv, tmp_path / "ref.csv", header, table)
    assert expected.startswith(b"zeros,nans,infs,tiny_huge,at_threshold,past_threshold\n0,nan,inf,")
    assert b"\n-0,nan,-inf,1e+308," in expected and b",-4.9406564584124654e-324," in expected
    assert _written_bytes(_write_csv, tmp_path / "array.csv", header, table) == expected
    assert _written_bytes(_write_csv, tmp_path / "rows.csv", header, table.tolist()) == expected


def _csv_peak(writer, path, header, table):
    writer(str(path), header, table)  # one-time imports and caches
    tracemalloc.start()
    try:
        writer(str(path), header, table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_holds_no_more_than_the_former_writer_on_distinct_values(tmp_path):
    rng = np.random.default_rng(0)
    table = np.column_stack((np.arange(4096), rng.standard_normal((4096, 2))))
    assert not any(_repeated_texts(column) for column in table.T)
    header = ["k", "distance", "averaged_distance"]
    reference = _csv_peak(reference_chunked_write_csv, tmp_path / "ref.csv", header, table)
    peak = _csv_peak(_write_csv, tmp_path / "out.csv", header, table)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert peak <= 1.05 * reference, (peak, reference)


def test_run_csv_matches_the_per_row_table(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, spectrum=[1.0, 3.0, 100.0], x0=[1.0, -2.0, 1e-300], num_steps=300)
    assert main(["run", "--config", str(cfg_path)]) == 0
    problem = make_diagonal_problem([1.0, 3.0, 100.0])
    traj = run(problem, MethodParams(1.9 / 100.0, 0.85, MethodKind.HBM), [1.0, -2.0, 1e-300], 300)
    dist, avg = traj.distances, traj.averaged_distances()
    rows = [(k, dist[k], avg[k]) for k in range(301)]
    reference_write_csv(str(tmp_path / "ref.csv"), ["k", "distance", "averaged_distance"], rows)
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("steps", [1, 2, 100, 400])
def test_figure_fig1_matches_three_separate_runs(tmp_path, steps):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "--figure", "fig1", "--steps", str(steps), "--out", str(out)]) == 0
    problem = make_diagonal_problem([1.0, 100.0])
    params = MethodParams(1.9 / 100.0, 0.85, MethodKind.HBM)
    starts = ([0.01, 1.0], [1.0, 1.0], [100.0, 1.0])
    trajs = [run(problem, params, x0, steps) for x0 in starts]
    rows = [(k, *(t.distances[k] for t in trajs)) for k in range(steps + 1)]
    header = ["k", "dist_x0_1", "dist_x0_2", "dist_x0_3"]
    reference_write_csv(str(tmp_path / "ref.csv"), header, rows)
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# argv fuzz of ``figure`` and ``verify``

_COUNT_TEXT = st.one_of(
    st.integers(-3, 400).map(str),
    st.integers(-(10**12), 10**12).map(str),
    st.sampled_from(["0", "-0", "+5", "1e3", "3.5", "nan", "", " ", "٣", "0x10", "007"]),
)
_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1.0, 1e4).map(repr),
    st.floats(1e-12, 0.05).map(repr),
    st.sampled_from(
        ["28", "100", "1e6", "1e40", "1e-300", "0", "-0.0", "-1", "5e-324", "1e308", "x", ""]
    ),
)
_FLOAT_LIST_TEXT = st.lists(_FLOAT_TEXT, min_size=0, max_size=4).map(",".join)


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def _fuzzed_figure_verify_argv(draw):
    if draw(st.booleans()):
        figure = draw(st.one_of(st.sampled_from(FIGURE_IDS), st.text(max_size=5)))
        argv = ["figure", *draw(_option("--figure", st.just(figure)))]
        argv += draw(_option("--resolution", _COUNT_TEXT)) + draw(_option("--steps", _COUNT_TEXT))
    else:
        argv = ["verify", draw(st.one_of(st.sampled_from(VERIFY_IDS), st.text(max_size=5)))]
        argv += draw(_option("--cond", _FLOAT_LIST_TEXT)) + draw(_option("--eps", _FLOAT_LIST_TEXT))
        argv += draw(_option("--seeds", _COUNT_TEXT)) + draw(_option("--seed", _COUNT_TEXT))
        argv += draw(_option("--steps", _COUNT_TEXT))
    return argv


@settings(deadline=None, max_examples=400)
@given(argv=_fuzzed_figure_verify_argv())
def test_figure_and_verify_argv_fuzz_exits_0_2_or_3_without_a_traceback(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("argv") / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    # a small storage limit keeps every accepted op small and short
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(momlab.errors, "MAX_RUN_VALUES", 100_000)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    err = stderr.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, (argv, err)
    if code == 3:
        assert err.endswith("\n") and "error: " in err.splitlines()[-1], (argv, err)
    else:
        assert err == "" and out.exists(), (argv, err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "thm1", "--cond", "0"], "--eps defaults to 1/max(--cond), undefined at"),
        (["verify", "thm2", "--eps", "5e-324"], "budget sqrt(2c) ln(2/eps) is not finite at"),
        (["params", "--cond", "100", "--eps", "5e-324"], "budget sqrt(2c) ln(2/eps) is not"),
        (["verify", "thm1", "--cond", "1e308"], "cond_bar=1e+308 too large: the rule's beta"),
        (["verify", "thm2", "--cond", "1.2e46"], "cond_bar=1.2e+46 too large: the rule's beta"),
        (["params", "--cond", "1e40", "--eps", "1e-50"], "cond_bar=1e+40 too large: the rule's"),
    ],
)
def test_argv_found_by_the_fuzz_exit_3_with_one_line(capsys, argv, message):
    # formerly a ZeroDivisionError, an OverflowError and a ValueError traceback
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"momlab: error: {message}") and err.count("\n") == 1


def test_params_refuses_bounds_whose_ratio_overflows(capsys):
    # formerly reported as "cond_bar=inf too large: the rule's beta rounds to 1"
    assert main(["params", "--lower", "1e-320", "--upper", "1", "--eps", "1e-3"]) == 3
    assert capsys.readouterr().err == (
        "momlab: error: upper/lower overflows float64 at lower=1e-320, upper=1.0\n"
    )


# ---------------------------------------------------------------------------
# argv fuzz of ``params``


@st.composite
def _fuzzed_params_argv(draw):
    bound = st.one_of(_FLOAT_TEXT, st.sampled_from(["1e-320", "2.2250738585072014e-308", "inf"]))
    argv = ["params", *draw(_option("--cond", _FLOAT_LIST_TEXT))]
    argv += draw(_option("--lower", bound)) + draw(_option("--upper", bound))
    argv += draw(_option("--eps", _FLOAT_LIST_TEXT))
    return argv


@settings(deadline=None, max_examples=400)
@given(argv=_fuzzed_params_argv())
def test_params_argv_fuzz_exits_0_2_or_3_with_one_line(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    err = stderr.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert err == "" and stdout.getvalue().count("\n") == 2, (argv, err)
    else:
        assert err.count("\n") == 1 and "error: " in err, (argv, err)


# ---------------------------------------------------------------------------
# history-free runs


def test_run_names_the_step_of_a_first_non_finite_distance_on_a_block_boundary(
    tmp_path, capsys, monkeypatch
):
    # the start of the boundary test in test_methods: step 13 is the first
    # non-finite distance, and a block of 13 steps ends on it
    problem = make_diagonal_problem([1.0, 100.0])
    params = MethodParams(0.021, 0.99, MethodKind.HBM)
    unit = run(problem, params, [0.0, 1.0], 40).distances
    scale = np.sqrt(np.finfo(float).max) / np.sqrt(unit[13] * unit[:13].max())
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, params={"source": "explicit", "alpha": 0.021, "beta": 0.99},
                  x0=[0.0, scale], num_steps=40)
    messages = []
    for block_rows in (momlab.methods._BLOCK_ROWS, 1, 12, 13, 14):
        monkeypatch.setattr(momlab.methods, "_BLOCK_ROWS", block_rows)
        assert main(["run", "--config", str(cfg_path)]) == 3
        messages.append(capsys.readouterr().err)
    assert messages == [
        "momlab: error: distance to the minimizer is not a finite float64 at step 13:"
        " x0 or shift is too large\n"
    ] * 5
    assert not (tmp_path / "run.csv").exists()


def test_run_memory_is_bounded_by_one_block_not_the_history(tmp_path, capsys):
    n, steps = 400, 2000
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, spectrum=None, n=n, cond=1e4, spectrum_law="log-uniform",
                  params={"source": "theorem1"}, x0="random-unit", num_steps=steps)
    assert main(["run", "--config", str(cfg_path)]) == 0  # one-time imports and caches
    tracemalloc.start()
    try:
        assert main(["run", "--config", str(cfg_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # float64 arrays: the (B+1, n) block buffer and at most five block-sized
    # temporaries of its norms; eight arrays of K+1 values (distances,
    # averaged distances, the CSV table). CSV text: under 256 bytes per row
    # of Python floats and formatted text. 1 MB for everything of size O(n)
    # or O(1). The (K+1, n) history alone is 6.4 MB, and a run that keeps it
    # peaks near 21 MB.
    values = 6 * (momlab.methods._BLOCK_ROWS + 1) * n + 8 * (steps + 1)
    bound = 8 * values + 256 * (steps + 1) + 2**20
    assert peak < bound, (peak, bound)
    assert bound < 8 * (steps + 1) * n * 1.5


def test_diagonal_run_forms_no_n_by_n_array(tmp_path, capsys):
    # (K+1) * n = 8,000 values; a dense 4,000 x 4,000 Hessian would be 128 MB
    n = 4000
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, spectrum=None, n=n, cond=1e4, spectrum_law="log-uniform",
                  params={"source": "theorem1"}, x0="random-unit", num_steps=1)
    tracemalloc.start()
    try:
        assert main(["run", "--config", str(cfg_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 16, peak
