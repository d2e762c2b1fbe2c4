"""tools/compare_outputs.py: its axes, and how a differing output is
described."""

import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import compare_outputs  # noqa: E402


def test_each_changed_field_names_its_largest_relative_change():
    old = {"results": [{"j": 1, "estimate": 4.0, "mode": "a"}],
           "sweep": {"estimates": [1.0, 2.0, -8.0], "spread": 0.0},
           "nan": math.nan, "same": [1.0, 2.0]}
    new = {"results": [{"j": 1, "estimate": 4.0 + 1e-12, "mode": "b"}],
           "sweep": {"estimates": [1.0, 2.0 + 2e-9, -8.0 - 8e-9],
                     "spread": 1e-9},
           "nan": math.nan, "same": [1.0, 2.0], "added": 1}
    got = compare_outputs.describe("--out bytes", json.dumps(old).encode(),
                                   json.dumps(new).encode())
    assert got == ("--out fields: results.0.estimate (rel 2.5e-13), "
                   "results.0.mode (rel n/a), sweep.estimates (rel 1e-09), "
                   "sweep.spread (rel inf), added (rel n/a)")


def test_a_csv_difference_names_its_columns():
    old = b"r,V_re,V_im,W\n0,1,2,3\n1,4,5,6\n2,7,8,9\n"
    new = b"r,V_re,V_im,W\n0,1,2,3\n1,4,5.5,6\n2,7.5,8.5,9\n"
    got = compare_outputs.describe("--out bytes", old, new)
    assert got == "--out columns: V_re (1 rows), V_im (2 rows)"
    assert compare_outputs.differing_fields("--out bytes", old, new)[1] == [
        ("V_re", "1 rows"), ("V_im", "2 rows")]


def test_a_non_json_difference_shows_both_values():
    got = compare_outputs.describe("--out bytes", b"r  V\n1  2\n",
                                   b"r  V\n1  3\n")
    assert got == "--out bytes: b'r  V\\n1  2\\n' -> b'r  V\\n1  3\\n'"
    # CSV texts of different shapes are shown whole too
    got = compare_outputs.describe("--out bytes", b"r,V\n1,2\n", b"r,V\n")
    assert got == "--out bytes: b'r,V\\n1,2\\n' -> b'r,V\\n'"


def test_every_axis_runs_the_parent_and_the_change_alike(tmp_path,
                                                         monkeypatch):
    seen = []

    def fake_run(checkout, command, config, axis, out):
        seen.append((checkout, dict(axis)))
        data = b"x,y\n1,2\n" if checkout == tmp_path else b"x,y\n1,3\n"
        return 0, b"", b"", data

    monkeypatch.setattr(compare_outputs, "run", fake_run)
    config = tmp_path / "edges" / "c.json"
    for name, env in compare_outputs.AXES:
        got = compare_outputs.compare(
            (tmp_path, ("build",), config, (name, env), tmp_path))
        assert got[:3] == (name, "build", ["y"])
        assert got[3] == [f"DIFF build edges/c.json {name}: "
                          "--out columns: y (1 rows)"]
    assert [s[1] for s in seen[::2]] == [s[1] for s in seen[1::2]]
    names = [name for name, _ in compare_outputs.AXES]
    assert names == ["threads=1", "threads=2", "dispatch=baseline"]
    assert compare_outputs.label(("probe", "--sweep", "5")) == (
        "probe --sweep 5")
    assert compare_outputs.label(compare_outputs.COMMANDS[-1]) == (
        "expand (1100 radii)")


def test_an_axis_sets_its_environment_in_the_child_only(tmp_path,
                                                       monkeypatch):
    envs = []

    def fake_subprocess_run(argv, cwd, env, capture_output, timeout):
        envs.append(env)
        return SimpleNamespace(returncode=0, stdout=b"", stderr=b"")

    monkeypatch.setattr(compare_outputs.subprocess, "run",
                        fake_subprocess_run)
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "AVX2")
    for _, axis in compare_outputs.AXES:
        compare_outputs.run(tmp_path, ("build",), tmp_path / "c.json", axis,
                            tmp_path / "out")
    assert "NPY_DISABLE_CPU_FEATURES" not in envs[0]
    assert "NPY_DISABLE_CPU_FEATURES" not in envs[1]
    assert envs[2]["NPY_DISABLE_CPU_FEATURES"] == (
        "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
    assert [env["OPENBLAS_NUM_THREADS"] for env in envs] == ["1", "2", "1"]
    assert [env["OMP_NUM_THREADS"] for env in envs] == ["1", "2", "1"]
    assert os.environ["NPY_DISABLE_CPU_FEATURES"] == "AVX2"
