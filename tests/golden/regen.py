"""The golden manifest of the CLI: for a fixed list of argvs, the exit code
and the sha256 of stdout, of stderr, of the warnings raised and of every
file the command writes.

``tests/test_golden.py`` reruns every case and compares it with
``manifest.json`` entry by entry. A change that means to alter an output
rewrites the manifest and names each changed entry in CHANGES.md:

    PYTHONPATH=src python tests/golden/regen.py

Each case runs in-process through ``momlab.cli.main`` in a fresh empty
directory holding only its config files, so every path a command prints is
relative and the bytes do not depend on where the check runs. The manifest
records the numpy version and machine it was made on, and the sha256 of the
stored arrays of the n = 402 rotations, so a run whose rotations differ names
that before its failing rotated entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from momlab.cli import FIGURE_IDS, VERIFY_IDS, main
from momlab.problems import random_orthogonal
from momlab.seeding import ROTATION_STREAM, stream_seed

MANIFEST = Path(__file__).with_name("manifest.json")

METHODS = ("mm", "hbm", "nag", "nag-compact")
# one converging explicit rule per family on spectra in [1, 100]
_EXPLICIT = {
    "mm": (0.019, 0.85), "hbm": (0.019, 0.85), "nag": (0.0095, 0.8), "nag-compact": (0.0095, 0.8)
}
_THEOREM = {"mm": "theorem1", "hbm": "theorem1", "nag": "theorem2", "nag-compact": "theorem2"}


def _run_case(config) -> tuple[list[str], dict]:
    return ["run", "--config", "cfg.json"], {"cfg.json": config}


# the seeds of the rotated n = 402 cases, whose rotations the manifest fingerprints
_ROTATED_N, _ROTATED_SEEDS = 402, (5, 6)


def _run_cases() -> dict[str, tuple[list[str], dict]]:
    rotated = {"n": _ROTATED_N, "cond": 1e4, "spectrum_law": "log-uniform", "rotate": True}
    plain_seed, shift_seed = _ROTATED_SEEDS
    cases = {}
    for method in METHODS:
        alpha, beta = _EXPLICIT[method]
        explicit = {"source": "explicit", "alpha": alpha, "beta": beta}
        theorem = {"source": _THEOREM[method]}
        cases[f"run diagonal explicit-x0 {method}"] = _run_case(
            {"spectrum": [1, 3, 100], "method": method, "params": explicit,
             "x0": [1.0, -2.0, 0.5], "num_steps": 300}
        )
        cases[f"run two-point eps {method}"] = _run_case(
            {"n": 10, "cond": 1e3, "spectrum_law": "two-point", "method": method,
             "params": theorem, "eps": 1e-3, "seed": 3}
        )
        cases[f"run rotated n=402 {method}"] = _run_case(
            {**rotated, "method": method, "params": theorem, "num_steps": 300, "seed": plain_seed}
        )
        cases[f"run rotated n=402 shift {method}"] = _run_case(
            {**rotated, "method": method, "params": theorem, "eps": 1e-4, "seed": shift_seed,
             "shift": [math.sin(i) for i in range(_ROTATED_N)]}
        )
        cases[f"run rotated explicit-x0 {method}"] = _run_case(
            {"spectrum": [1, 2, 5, 50, 100], "rotate": True, "shift": [1, -1, 2, 0.5, -3],
             "method": method, "params": explicit, "x0": [0, 0, 0, 0, 0], "num_steps": 257}
        )
    # spectrum[i] pairs with x0[i]: the given order is kept, not sorted
    cases["run diagonal unsorted spectrum"] = _run_case(
        {"spectrum": [100, 1, 3], "method": "hbm", "params": {"source": "theorem1"},
         "x0": [1.0, -2.0, 0.5], "num_steps": 300}
    )
    cases["run flags override config"] = (
        ["run", "--config", "cfg.json", "--seed", "9", "--steps", "7", "--out", "other.csv"],
        {"cfg.json": {"n": 6, "cond": 50, "spectrum_law": "log-uniform", "rotate": True,
                      "params": {"source": "theorem2"}, "eps": 0.01}},
    )
    return cases


def _figure_cases() -> dict[str, tuple[list[str], dict]]:
    argvs = [
        ["figure", "--figure", figure, "--resolution", str(resolution)]
        for figure in FIGURE_IDS
        for resolution in (1, 2, 100, 205)
    ]
    argvs += [["figure", "--figure", "fig1", "--steps", str(steps)] for steps in (1, 255, 256, 257)]
    argvs.append(["figure", "--figure", "fig2", "--resolution", "9", "--out", "grid.csv"])
    return {" ".join(argv): (argv, {}) for argv in argvs}


def _verify_cases() -> dict[str, tuple[list[str], dict]]:
    argvs = [["verify", check] for check in VERIFY_IDS]
    argvs += [
        ["verify", check, "--steps", str(steps)]
        for check in ("norm-bound", "schur")
        for steps in (1, 2, 3, 57, 58, 59, 60)
    ]
    for check in ("thm1", "thm2"):
        several = ["verify", check, "--cond", "100,28,100,1000", "--eps", "0.001,1e-4"]
        several += ["--seeds", "3"]
        argvs += [several, [*several, "--steps", "3"], [*several, "--seed", "7"]]
    # every ratio underflows to 0: exit 2, not PASS
    argvs.append(["verify", "thm1", "--cond", "28", "--eps", "1e-80", "--seeds", "3"])
    argvs.append(
        ["verify", "thm2", "--cond", "50", "--eps", "0.01", "--seeds", "2", "--out", "report.txt"]
    )
    return {" ".join(argv): (argv, {}) for argv in argvs}


def _params_cases() -> dict[str, tuple[list[str], dict]]:
    argvs = [
        ["params", "--cond", "100", "--eps", "0.01"],
        ["params", "--cond", "28", "--eps", "1e-6"],
        ["params", "--cond", "1e6", "--eps", "1e-9"],
        ["params", "--lower", "2", "--upper", "200", "--eps", "0.01"],
        ["params", "--lower", "0.5", "--upper", "1e4", "--eps", "1e-5"],
    ]
    return {" ".join(argv): (argv, {}) for argv in argvs}


def _error_cases() -> dict[str, tuple[list[str], dict]]:
    """One argv per documented exit-2 and exit-3 class."""
    explicit = {"method": "hbm", "num_steps": 100,
                "params": {"source": "explicit", "alpha": 0.019, "beta": 0.85}}
    base = {**explicit, "spectrum": [1, 100], "x0": [1.0, 1.0]}
    law = {"n": 3, "cond": 100, "spectrum_law": "log-uniform", "rotate": True, "x0": "random-unit"}
    theorem = {"source": "theorem1"}
    files = {"cfg.json": base}
    run_errors = {
        "no config": (["run"], {}),
        "missing config": (["run", "--config", "missing.json"], {}),
        "bad json": (["run", "--config", "cfg.json"], {"cfg.json": "{\n  'bad': }\n"}),
        "unknown field": _run_case({**base, "colour": "red"}),
        "invalid spectrum": _run_case({**base, "spectrum": [1, -2]}),
        "singular spectrum": _run_case({**base, "spectrum": [1, 1e13], "params": theorem}),
        "singular rotated spectrum": _run_case(
            {**base, "spectrum": [1, 1e13], "params": theorem, "rotate": True, "x0": "random-unit"}
        ),
        "diverging rule": _run_case(
            {**base, "method": "nag", "params": {"source": "explicit", "alpha": 0.019, "beta": 0.5}}
        ),
        "x0 length": _run_case({**base, "x0": [1.0, 1.0, 1.0]}),
        "non-finite distance": _run_case({**base, "x0": [1e308, 1e308]}),
        "overflowing shift": _run_case({**explicit, **law, "shift": [1e308] * 3}),
        "run too large": (["run", "--config", "cfg.json", "--steps", "10000000"], files),
        "rotation too large": _run_case(
            {**explicit, **law, "n": 4473, "cond": 1e4, "num_steps": 1, "params": theorem}
        ),
        "unwritable out": (["run", "--config", "cfg.json", "--out", "no-such-dir/run.csv"], files),
        "steps not a count": (["run", "--config", "cfg.json", "--steps", "zero"], files),
        "eps a bool": _run_case({"spectrum": [1, 100], "params": theorem, "eps": True}),
        "cond and eps strings": _run_case({**law, "params": theorem, "cond": "100", "eps": "1e-3"}),
        "spectrum entry a string": _run_case({**base, "spectrum": [1, "2"]}),
        # the size guard comes before a spectrum law's values are built
        "two-point n=10**30": _run_case(
            {**explicit, **law, "n": 10**30, "spectrum_law": "two-point", "params": theorem}
        ),
        "log-uniform n=10**30": _run_case({**explicit, **law, "n": 10**30, "params": theorem}),
        "log-uniform n=30000000000": _run_case(
            {**explicit, **law, "n": 30000000000, "params": theorem}
        ),
        # one line listing the values, and no numpy warning before it
        "log-uniform cond Infinity": _run_case(
            {**explicit, **law, "n": 5, "cond": math.inf, "params": theorem}
        ),
        "two-point cond Infinity": _run_case(
            {**explicit, **law, "n": 5, "cond": math.inf, "spectrum_law": "two-point",
             "params": theorem}
        ),
    }
    cases = {f"run error {name}": case for name, case in run_errors.items()}
    argvs = [
        ["figure"],
        ["figure", "--figure", "nope"],
        ["figure", "--figure", "fig2", "--resolution", "0"],
        ["figure", "--figure", "fig2", "--resolution", "1000000"],
        ["figure", "--figure", "fig1", "--steps", "5000000"],
        ["verify", "bogus"],
        ["verify", "thm1", "--seeds", "0"],
        ["verify", "thm1", "--cond", "10", "--eps", "0.01", "--seeds", "2"],
        ["verify", "thm1", "--cond", "100", "--eps", "0.02", "--seeds", "2"],
        ["verify", "thm1", "--cond", "100", "--eps", "0.01", "--seeds", "2", "--steps", "3"],
        # error order across pairs: each cond's rule, then its budgets, cond by cond
        # (1e33's rule fails before its budget would; 28 passes before 100 fails)
        ["verify", "thm1", "--cond", "28,1e33", "--eps", "0.03", "--seeds", "2"],
        ["verify", "thm1", "--cond", "100,28", "--eps", "0.02", "--seeds", "2"],
        ["verify", "thm1", "--cond", "0"],
        ["verify", "thm1", "--cond", "1e308"],
        ["verify", "thm2", "--eps", "5e-324"],
        ["verify", "thm1", "--steps", "10000000"],
        ["verify", "norm-bound", "--steps", "10000000"],
        ["verify", "schur", "--steps", "47620"],
        ["params", "--eps", "0.01"],
        ["params", "--cond", "28", "--lower", "2", "--upper", "56", "--eps", "0.01"],
        ["params", "--cond", "28,100", "--eps", "0.01"],
        ["params", "--cond", "100", "--eps", "5e-324"],
        ["params", "--cond", "1e40", "--eps", "1e-50"],
        ["params", "--lower", "1e-320", "--upper", "1", "--eps", "1e-3"],
    ]
    cases.update({" ".join(argv): (argv, {}) for argv in argvs})
    return cases


def cases() -> dict[str, tuple[list[str], dict]]:
    """Every golden case: name -> (argv, {config file name: JSON value or text})."""
    merged = {}
    for group in (_run_cases, _figure_cases, _verify_cases, _params_cases, _error_cases):
        for name, case in group().items():
            assert name not in merged, name
            merged[name] = case
    return merged


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv: list[str], files: dict, workdir: Path) -> dict:
    """Run ``main(argv)`` in ``workdir`` (empty) after writing ``files`` there."""
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (workdir / name).write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.chdir(workdir), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    raised = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    written = sorted(
        path for path in workdir.rglob("*") if path.is_file() and path.name not in files
    )
    return {
        "argv": argv,
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "warnings": _sha(raised.encode()),
        "files": {str(p.relative_to(workdir)): _sha(p.read_bytes()) for p in written},
    }


def environment() -> dict:
    rotations = hashlib.sha256()
    for seed in _ROTATED_SEEDS:
        rotation = random_orthogonal(_ROTATED_N, stream_seed(seed, ROTATION_STREAM))
        rotations.update(rotation.reflectors.tobytes() + rotation.signs.tobytes())
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "rotation_sha256": rotations.hexdigest(),
    }


def build(root: Path) -> dict:
    """The manifest as the current code produces it, one directory per case under ``root``."""
    entries = {}
    for i, (name, (argv, files)) in enumerate(cases().items()):
        workdir = root / f"case{i:03d}"
        workdir.mkdir()
        entries[name] = record(argv, files, workdir)
    return {**environment(), "entries": entries}


def main_regen() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = build(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['entries'])} entries to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main_regen())
