"""Command-line driver: config validation, CSV/JSON output, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ewlab.cli
from ewlab.cli import main
from ewlab.construct import InvertibilityError, sample_grid
from ewlab.kernel import ConfigError, GridError, ModelConfig, PositivityError
from ewlab.linalg import SingularMatrixError
from ewlab.oracle import MaxDepthExceededError, StepTooLargeError
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


def test_build_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["build", "--config", cfg, "--out", str(out1)])
    main(["build", "--config", cfg, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


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


def test_expand_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["expand", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "r"
    assert len(lines) == 4  # header + default radii 50, 100, 200
    assert main(["expand", "--config", cfg, "--", "-5"]) == 2
    assert "must be positive" in read_err(capsys)


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


def test_probe_free_modes(tmp_path):
    cfg = write_config(tmp_path, grid={"start": 0.0, "end": 20.0, "step": 0.01})
    out = tmp_path / "free.json"
    assert main(["probe", "--config", cfg, "--out", str(out), "--free"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["free_modes"]) == 3
    for mode in doc["free_modes"]:
        assert mode["abs_error"] <= 1e-10


def test_probe_bytes_independent_of_blas_threads(tmp_path):
    # the thread count is read when numpy loads, so each run is a new process
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"probe-{threads}.json"
        subprocess.run([sys.executable, "-m", "ewlab.cli", "probe", "--config",
                        str(root / "configs" / "probe.json"), "--out", str(out)],
                       env=env, check=True, timeout=300)
        outputs.append(out.read_bytes())
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
    (PositivityError("<xi, G xi> = -1 is not positive"), 1),
    (MaxDepthExceededError("adaptive Simpson exceeded depth 60"), 1),
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
