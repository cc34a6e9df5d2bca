"""Unchanged CLI outputs: every case of the golden manifest reproduces its
exit code, stdout, stderr, warnings and written files byte for byte."""

import json

from golden import regen


def test_cli_outputs_match_the_golden_manifest(tmp_path):
    expected = json.loads(regen.MANIFEST.read_text())
    actual = regen.build(tmp_path)
    problems = [
        f"manifest made with {key}={expected.get(key)!r}, running with {key}={actual[key]!r}"
        for key in regen.environment()
        if expected.get(key) != actual[key]
    ]
    for name in sorted(expected["entries"].keys() | actual["entries"].keys()):
        want, got = expected["entries"].get(name), actual["entries"].get(name)
        if want != got:
            problems.append(f"{name}:\n  manifest: {want}\n  now:      {got}")
    assert not problems, "\n".join(problems)
