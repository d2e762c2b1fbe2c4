"""Command-line driver: config validation, CSV/JSON output, determinism."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ewlab.cli
import ewlab.construct
from ewlab.cli import main
from ewlab.construct import InvertibilityError, sample_grid
from ewlab.kernel import ConfigError, GridError, ModelConfig, gram_matrix_stack
from ewlab.linalg import SingularMatrixError
from ewlab.oracle import QuadratureError, StepTooLargeError
from ewlab.spectral_probe import NoConvergenceError


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "mu": [1.0],
        "a": [[1.0, 0.0]],
        "grid": {"start": 0.0, "end": 10.0, "step": 0.01},
        "seed": 0,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_err(capsys):
    return capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["build", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in read_err(capsys)


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["build", "--config", str(path)]) == 2
    assert "not valid JSON" in read_err(capsys)


def test_missing_keys(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mu": [1.0]}))
    assert main(["build", "--config", str(path)]) == 2
    assert 'missing key "a"' in read_err(capsys)
    path.write_text(json.dumps({"mu": [1.0], "a": [1.0],
                                "grid": {"start": 0, "end": 1}}))
    assert main(["build", "--config", str(path)]) == 2
    assert 'missing key "grid.step"' in read_err(capsys)


def test_bad_coupling_entry(tmp_path, capsys):
    cfg = write_config(tmp_path, a=[0.0])
    assert main(["build", "--config", cfg]) == 2
    assert "a_1 == 0" in read_err(capsys)
    cfg = write_config(tmp_path, a=[[-1.0, 0.0]])
    assert main(["build", "--config", cfg]) == 2
    assert "Re(a_1) < 0" in read_err(capsys)
    cfg = write_config(tmp_path, a=["one"])
    assert main(["build", "--config", cfg]) == 2
    assert "a_1 must be a number or an [re, im] pair" in read_err(capsys)


def test_unsorted_frequencies(tmp_path, capsys):
    cfg = write_config(tmp_path, mu=[1.0, 2.0], a=[[1.0, 0.0], [1.0, 0.0]])
    assert main(["build", "--config", cfg]) == 2
    assert "mu_1 <= mu_2" in read_err(capsys)


def test_bad_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, seed=-3)
    assert main(["build", "--config", cfg]) == 2
    assert '"seed"' in read_err(capsys)


def test_bad_grid_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["build", "--config", cfg, "--grid-override", "0,10"]) == 2
    assert "start,end,step" in read_err(capsys)
    assert main(["build", "--config", cfg, "--grid-override", "0,10,0.3"]) == 2
    assert "whole number of steps" in read_err(capsys)
    assert main(["probe", "--config", cfg, "--sweep", "-3"]) == 2
    assert "--sweep -3 must be non-negative" in read_err(capsys)


@pytest.mark.parametrize("command", ["build", "verify"])
def test_out_in_missing_directory_is_bad_input(tmp_path, capsys, monkeypatch,
                                               command):
    def work(*args, **kwargs):
        raise AssertionError("ran before rejecting --out")

    monkeypatch.setattr(ewlab.cli, "sample_blocks", work)
    monkeypatch.setattr(ewlab.cli, "run_verification", work)
    cfg = write_config(tmp_path)
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing" / "x.out", tmp_path / "file" / "x.out"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --out {out}: parent is not an "
                                "existing directory\n")


def test_build_csv_shape(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "r,V_re,V_im,v1_re,v1_im,W"
    assert len(rows) == 1002  # header + 1001 grid points
    first = rows[1].split(",")
    assert [float(x) for x in first] == [0.0] * 6
    assert "-0" not in rows[1]


def test_build_csv_round_trips_doubles(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"
    main(["build", "--config", cfg, "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    model = ModelConfig([1.0], [1.0])
    for k in (137, 500, 1000):
        r = float(rows[k]["r"])
        want = sample_grid(model, [r]).V[0]
        assert float(rows[k]["V_re"]) == want.real
        assert float(rows[k]["V_im"]) == want.imag


def test_build_csv_matches_per_cell_format(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, mu=[2.0, 1.0], a=[[1.0, 1.0], [2.0, 0.0]],
                       grid={"start": 0.0, "end": 5.0, "step": 0.01})
    ps = sample_grid(ModelConfig([2.0, 1.0], [1.0 + 1.0j, 2.0]),
                     np.arange(501) * 0.01)
    rows = []
    for k, r in enumerate(ps.radii):
        cells = [r, ps.V[k].real, ps.V[k].imag]
        for z in ps.v[k]:
            cells += [z.real, z.imag]
        cells.append(ps.w[k])
        rows.append(",".join(f"{x + 0.0:.17g}" for x in cells))
    # one block, then seven radii per block at n = 2 (72 blocks)
    for block_bytes in (ewlab.construct.BLOCK_BYTES, 7 * 16 * 4):
        monkeypatch.setattr(ewlab.construct, "BLOCK_BYTES", block_bytes)
        out = tmp_path / "out.csv"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == rows, block_bytes


def test_build_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["build", "--config", cfg, "--out", str(out1)])
    main(["build", "--config", cfg, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_build_out_file_follows_the_umask(tmp_path):
    cfg = write_config(tmp_path, grid={"start": 0.0, "end": 1.0, "step": 0.5})
    out = tmp_path / "out.csv"
    old = os.umask(0o022)
    try:
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644


def test_streamed_build_stays_atomic(tmp_path, monkeypatch, capsys):
    # ten radii per block at n = 1, so the 1001-row grid is 101 blocks
    monkeypatch.setattr(ewlab.construct, "BLOCK_BYTES", 10 * 16)
    cfg = write_config(tmp_path)
    good = tmp_path / "good.csv"
    assert main(["build", "--config", cfg, "--out", str(good)]) == 0
    assert main(["build", "--config", cfg]) == 0
    assert capsys.readouterr().out.encode() == good.read_bytes()

    written = []
    real_fdopen = os.fdopen

    def fdopen(fd, mode):
        fh = real_fdopen(fd, mode)

        def write(text):
            if len(written) == 2:  # the header, then the first block
                raise RuntimeError("write failed")
            written.append(text)
            return type(fh).write(fh, text)

        fh.write = write
        return fh

    monkeypatch.setattr(ewlab.cli.os, "fdopen", fdopen)
    out = tmp_path / "out.csv"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 1
    assert written[1].count("\n") == 10
    assert capsys.readouterr().err == "error: write failed\n"
    assert not out.exists()
    assert list(tmp_path.glob(".ewlab-tmp-*")) == []


def test_build_failing_in_a_later_block_names_r(tmp_path, monkeypatch,
                                               capsys):
    # ten radii per block at n = 1; A + G(r) is made singular at r_205
    monkeypatch.setattr(ewlab.construct, "BLOCK_BYTES", 10 * 16)
    load = ewlab.cli.load_config
    r = None

    def planted(*args, **kwargs):
        nonlocal r
        rc = load(*args, **kwargs)
        r = float(rc.grid.radii()[205])
        g = gram_matrix_stack(rc.model, [r])[0, 0, 0]
        object.__setattr__(rc.model, "a", np.array([-g], dtype=complex))
        return rc

    monkeypatch.setattr(ewlab.cli, "load_config", planted)
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: A+G(r) numerically singular at r = {r!r} "
                            "on the sampling grid\n")
    assert not out.exists()
    assert list(tmp_path.glob(".ewlab-tmp-*")) == []
    # on stdout the header and the 20 blocks before the failing one are out
    assert main(["build", "--config", cfg]) == 1
    assert capsys.readouterr().out.count("\n") == 1 + 200


@pytest.mark.parametrize("command", ["build", "verify", "probe", "expand"])
def test_non_finite_system_names_r(tmp_path, capsys, command):
    # mu_1 + mu_2 overflows: bad input, rejected before H(r) fills with NaN
    cfg = write_config(tmp_path, mu=[1e308, 1.0], a=[1.0, 1.0])
    assert main([command, "--config", cfg]) == 2
    assert read_err(capsys) == (
        "error: 2 mu_1 is not finite: mu_i + mu_j overflows\n")


@pytest.mark.parametrize("key", ["mu_1", "a_2", "grid.end"])
def test_integer_beyond_float_range_is_bad_input(tmp_path, capsys, key):
    huge = 10 ** 400  # valid JSON, but float() overflows on it
    doc = {"mu_1": {"mu": [huge, 1.0], "a": [1.0, 1.0]},
           "a_2": {"mu": [2.0, 1.0], "a": [1.0, [huge, 0]]},
           "grid.end": {"grid": {"start": 0, "end": huge, "step": 1}}}[key]
    cfg = write_config(tmp_path, **doc)
    assert main(["build", "--config", cfg]) == 2
    assert read_err(capsys) == (
        f"error: {key} is an integer beyond float range\n")


def test_build_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch):
    # 100 radii per block at n = 3: both grids are many blocks long
    monkeypatch.setattr(ewlab.construct, "BLOCK_BYTES", 100 * 16 * 9)
    peaks = []
    for end in (10.0, 100.0):
        cfg = write_config(tmp_path, mu=[3.0, 2.0, 1.0], a=[1.0, 1.0, 1.0],
                           grid={"start": 0.0, "end": end, "step": 0.01})
        argv = ["build", "--config", cfg, "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 0  # warm caches outside the measurement
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 9,000 more rows may add their radii (8 B each), not their sample
    # (over 100 B each at n = 3) or their text
    assert peaks[1] - peaks[0] <= 24 * 9000, peaks


def test_build_real_config_prints_zero_imaginary_columns(tmp_path):
    # real couplings are sampled in float64; every _im column is still there
    cfg = write_config(tmp_path, mu=[3.0, 2.0, 1.0], a=[1.0, 0.5, 2.0],
                       grid={"start": 0.0, "end": 5.0, "step": 0.01})
    out = tmp_path / "out.csv"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = ["V_im", "v1_im", "v2_im", "v3_im"]
    assert len(rows) == 501 and set(columns) <= set(rows[0])
    assert {row[c] for row in rows for c in columns} == {"0"}
    assert max(abs(float(row["v1_re"])) for row in rows) > 0.1


def test_build_complex_config_has_imaginary_column(tmp_path):
    cfg = write_config(tmp_path, mu=[2.0, 1.0], a=[[1.0, 1.0], [2.0, 0.0]])
    out = tmp_path / "out.csv"
    main(["build", "--config", cfg, "--out", str(out)])
    with open(out, newline="") as fh:
        v_im = [abs(float(row["V_im"])) for row in csv.DictReader(fh)]
    assert max(v_im) > 1e-3


def test_grid_override_changes_rows(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"
    main(["build", "--config", cfg, "--out", str(out),
          "--grid-override", "0,1,0.5"])
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize("command", ["verify", "expand"])
def test_grid_override_only_where_the_grid_is_read(tmp_path, capsys, command):
    # verify and expand never read the grid, so they do not take the flag
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--grid-override", "0,1,0.5"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_expand_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["expand", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "r"
    assert len(lines) == 4  # header + default radii 50, 100, 200
    assert main(["expand", "--config", cfg, "--", "-5"]) == 2
    assert "must be positive" in read_err(capsys)
    assert main(["expand", "--config", cfg, "inf"]) == 2
    assert "must be positive and finite" in read_err(capsys)


def test_expand_builds_one_h_stack(tmp_path, monkeypatch, capsys):
    # W comes from the sample, so the expansion terms need no H of their own
    calls = []
    stack = ewlab.construct.h_matrix_stack

    def counted(config, radii):
        calls.append(len(radii))
        return stack(config, radii)

    monkeypatch.setattr(ewlab.construct, "h_matrix_stack", counted)
    cfg = write_config(tmp_path, mu=[2.0, 1.0], a=[[1.0, 0.5], [2.0, 0.0]])
    assert main(["expand", "--config", cfg]) == 0
    assert calls == [3]
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_probe_report_schema(tmp_path):
    cfg = write_config(tmp_path, mu=[2.0, 1.0], a=[[1.0, 0.0], [1.0, 0.0]],
                       grid={"start": 0.0, "end": 40.0, "step": 0.01})
    out = tmp_path / "probe.json"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "essential spectrum" in doc["note"]
    assert [res["j"] for res in doc["results"]] == [1, 2]
    for res in doc["results"]:
        assert res["residual"] <= 1e-10
        assert res["start_mode"] == "sampled eigenfunction"
        # R = 40 truncates the tail hard; schema test, not accuracy
        assert 0.5 <= res["correlation_vs_sampled"] <= 1.0


def test_probe_sweep_schema(tmp_path):
    cfg = write_config(tmp_path, mu=[1.0],
                       grid={"start": 0.0, "end": 40.0, "step": 0.01})
    out = tmp_path / "probe.json"
    assert main(["probe", "--config", cfg, "--out", str(out),
                 "--sweep", "2"]) == 0
    sweep = json.loads(out.read_text())["sweep"]
    assert sweep["count"] == 2
    assert len(sweep["couplings"]) == 2
    assert set(sweep["estimates"]) == {"1"}
    assert sweep["spread"]["1"] >= 0.0
    assert sweep["error_floor"]["1"] > 0.0


def test_failing_sweep_names_its_coupling(tmp_path, capsys, monkeypatch):
    probe = ewlab.cli.probe_embedded
    calls = 0

    def third_fails(config, grid):
        nonlocal calls
        calls += 1
        if calls == 3:  # the single run, then swept couplings 1 and 2
            raise NoConvergenceError("probe at mu_1^2 = 1.0: no convergence")
        return probe(config, grid)

    monkeypatch.setattr(ewlab.cli, "probe_embedded", third_fails)
    cfg = write_config(tmp_path,
                       grid={"start": 0.0, "end": 40.0, "step": 0.01})
    assert main(["probe", "--config", cfg, "--sweep", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --sweep coupling 2 of 5: probe at "
                            "mu_1^2 = 1.0: no convergence\n")


def test_probe_free_modes(tmp_path):
    cfg = write_config(tmp_path, grid={"start": 0.0, "end": 20.0, "step": 0.01})
    out = tmp_path / "free.json"
    assert main(["probe", "--config", cfg, "--out", str(out), "--free"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["free_modes"]) == 3
    for mode in doc["free_modes"]:
        assert mode["abs_error"] <= 1e-10


@pytest.mark.parametrize("command, config", [
    ("probe", "probe.json"), ("build", "demo_complex.json"),
    ("verify", "demo.json")], ids=["probe", "build", "verify"])
def test_bytes_independent_of_blas_threads(tmp_path, command, config):
    # the thread count is read when numpy loads, so each run is a new process
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"{command}-{threads}.out"
        run = subprocess.run(
            [sys.executable, "-m", "ewlab.cli", command, "--config",
             str(root / "configs" / config), "--out", str(out)],
            env=env, capture_output=True, check=True, timeout=300)
        outputs.append((run.stdout, run.stderr, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_verify_small_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "PASS overall" in stdout
    assert "FAIL" not in stdout
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["mu"] == [1.0]
    first = out.read_bytes()
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == first
    capsys.readouterr()  # swallow the second run's check lines


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


@pytest.mark.parametrize("exc, code", [
    (InvertibilityError("A+G(r) numerically singular"), 1),
    (FloatingPointError("overflow encountered in exp"), 1),
    (QuadratureError("Gauss-Legendre rules (16, 24) disagree beyond "
                     "tol = 1e-12 on [0, 30]"), 1),
    (StepTooLargeError("|V - mu^2| h^2 > 0.1; halve the step"), 1),
    (SingularMatrixError("pivot 0 below threshold in batch entry 3"), 1),
    (NoConvergenceError("no convergence"), 1),
    (ValueError("too few nonzero envelope points to fit"), 1),
    (ConfigError("bad input"), 2),
    (GridError("bad grid"), 2),
])
def test_exit_codes_by_failure_class(tmp_path, capsys, monkeypatch, exc, code):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(ewlab.cli, "run_verification", fail)
    assert main(["verify", "--config", write_config(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc}\n"
