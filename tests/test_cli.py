import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab.cli import main
from momlab.verify import verify_norm_bound, verify_theorem


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


# Values of the wrong type or out of range for any field. None as a value
# writes JSON null; the magnitudes stay small where a field sets a size.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
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
    assert (steps + 1) * n > momlab.cli.MAX_RUN_VALUES
    assert main(["run", "--config", str(cfg_path), *argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("momlab: error: ") and err.count("\n") == 1
    assert f"K={steps} " in err and f"n={n} " in err
    assert not (tmp_path / "run.csv").exists()


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


def test_bad_cli_usage_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus-check"])
    assert exc.value.code == 3
