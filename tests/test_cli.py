"""Command-line driver: config validation, CSV/JSON output, determinism."""

import csv
import errno
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewlab.cli
import ewlab.construct
import ewlab.spectral_probe
import ewlab.verify
from ewlab.cli import main
from ewlab.construct import InvertibilityError, sample_grid
from ewlab.kernel import (ConfigError, GridError, GridSpec, ModelConfig,
                          gram_matrix_stack)
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

    monkeypatch.setattr(ewlab.construct, "sample_blocks", work)
    monkeypatch.setattr(ewlab.verify, "run_verification", work)
    cfg = write_config(tmp_path)
    (tmp_path / "file").write_text("")
    parent = "parent is not an existing directory"
    for out, reason in ((tmp_path / "missing" / "x.out", parent),
                        (tmp_path / "file" / "x.out", parent),
                        (tmp_path / "missing" / ".." / "x.out", parent),
                        (tmp_path, "is a directory"),
                        (f"{tmp_path / 'new'}{os.sep}", "is a directory"),
                        ("", "is a directory")):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out}: {reason}\n"


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
        want = sample_grid(model, [r])[2][0]
        assert float(rows[k]["V_re"]) == want.real
        assert float(rows[k]["V_im"]) == want.imag


def test_build_csv_matches_per_cell_format(tmp_path, monkeypatch):
    model = ModelConfig([2.0, 1.0], [1.0 + 1.0j, 2.0])
    # the second grid's radii print as d.ddde-05, and its v and W fall
    # below 1e-6, where the formatter hands them to '%.17g'
    for grid in (GridSpec(0.0, 5.0, 0.01), GridSpec(0.0, 1e-3, 1e-5)):
        cfg = write_config(tmp_path, mu=[2.0, 1.0], a=[[1.0, 1.0], [2.0, 0.0]],
                           grid={"start": grid.r_start, "end": grid.r_end,
                                 "step": grid.step})
        radii = grid.radii()
        v, _, big_v, w = sample_grid(model, radii)
        rows = []
        for k, r in enumerate(radii):
            cells = [r, big_v[k].real, big_v[k].imag]
            for z in v[k]:
                cells += [z.real, z.imag]
            cells.append(w[k])
            rows.append(",".join(f"{x + 0.0:.17g}" for x in cells))
        # one block and slice; then 7 radii a block at n = 2, each row its
        # own slice; then 38-radius blocks cut into slices of 3 rows
        for block_bytes, values in ((ewlab.construct.BLOCK_BYTES,
                                     ewlab.cli._SLICE_VALUES),
                                    (7 * 160, 8), (6144, 24)):
            monkeypatch.setattr(ewlab.construct, "BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(ewlab.cli, "_SLICE_VALUES", values)
            out = tmp_path / "out.csv"
            assert main(["build", "--config", cfg, "--out", str(out)]) == 0
            assert out.read_text().splitlines()[1:] == rows, block_bytes
            monkeypatch.undo()


def _percent_g(table) -> str:
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in table.tolist())


def _hard_values() -> np.ndarray:
    """Powers of ten and their neighbours, exact ties at the 17th digit,
    the ends of the fast path, zeros, subnormals, huge and non-finite
    values, and a seeded sweep of bit patterns."""
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308,
              np.nan, np.inf, -np.inf, 1234567890123456.75,
              -1234567890123456.25, 1e-6, 1e-5, 1e-4, 1e16, 1e17]
    for k in range(-8, 19):
        for x in (float(f"1e{k}"), float(f"-1e{k}")):
            up = down = x
            for _ in range(4):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                values += [up, down]
            values.append(x)
    rng = np.random.default_rng(20)
    ties = []
    for j in range(2, 26):  # m 2^-j with m 5^j of 18 digits, the last a 5
        low = -(-10**17 // 5**j)
        high = min(2**53, 10**18 // 5**j)
        m = rng.integers(low, high, 40) | 1
        ties += (m * 2.0**-j).tolist()
    assert all(len(Decimal(x).as_tuple().digits) == 18 for x in ties)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64,
                        endpoint=False).view(float)
    scaled = rng.uniform(-7.0, 17.5, 20_000)
    signs = rng.choice([-1.0, 1.0], 20_000)
    return np.concatenate([values, ties, bits, signs * 10.0**scaled])


def test_format_rows_matches_percent_g_on_hard_values():
    values = _hard_values()
    table = values[:values.size // 7 * 7].reshape(-1, 7)
    assert ewlab.cli._format_rows(table) == _percent_g(table)
    # one value a row, so every value ends its row
    assert ewlab.cli._format_rows(values[:, None]) == _percent_g(
        values[:, None])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=24),
       st.integers(min_value=1, max_value=4))
def test_format_rows_matches_percent_g(values, width):
    values += [0.0] * (-len(values) % width)
    table = np.array(values).reshape(-1, width)
    assert ewlab.cli._format_rows(table) == _percent_g(table)


@pytest.mark.parametrize("shift", [0.9, -0.9])
def test_format_rows_does_not_depend_on_log10s_bits(monkeypatch, shift):
    table = _hard_values()[:, None]
    expected = ewlab.cli._format_rows(table)
    log10 = np.log10
    with np.errstate(divide="ignore", invalid="ignore"):
        guesses = np.floor(log10(np.abs(table)))
        assert np.any(np.floor(log10(np.abs(table)) + shift) != guesses)
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    assert ewlab.cli._format_rows(table) == expected


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
    monkeypatch.setattr(ewlab.construct, "BLOCK_BYTES", 10 * 56)
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
    monkeypatch.setattr(ewlab.construct, "BLOCK_BYTES", 10 * 56)
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


@pytest.mark.parametrize("command, r", [
    (["build"], 100.0), (["verify"], 400.0), (["probe"], 100.0),
    (["expand"], 200.0), (["expand", "1", "150"], 150.0)])
def test_overflowing_frequency_names_mu_1_and_r(tmp_path, capsys, command, r):
    # 2 mu_1 is finite, 2 mu_1 r is not at the largest radius the command
    # evaluates: the grid end, verify's 400, the largest expand radius
    cfg = write_config(tmp_path, mu=[1e306, 1.0], a=[1.0, 1.0],
                       grid={"start": 0.0, "end": 100.0, "step": 0.5})
    assert main([command[0], "--config", cfg, *command[1:]]) == 2
    assert read_err(capsys) == (
        f"error: 2 mu_1 r is not finite at mu_1 = 1e+306, r = {r!r}\n")


def test_frequency_check_is_at_the_largest_radius(tmp_path, capsys):
    # the same mu_1 is admissible on a grid that ends before 2 mu_1 r
    # overflows
    cfg = write_config(tmp_path, mu=[1e306, 1.0], a=[1.0, 1.0],
                       grid={"start": 0.0, "end": 10.0, "step": 0.5})
    assert main(["build", "--config", cfg]) == 0
    assert main(["expand", "--config", cfg, "1", "2"]) == 0
    assert read_err(capsys) == ""


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
    monkeypatch.setattr(ewlab.construct, "BLOCK_BYTES", 100 * 312)
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
    # 9,000 more rows add neither their radii (8 B each: the grid's radii
    # are computed block by block), nor their sample (over 100 B each at
    # n = 3), nor their text; about 1 B a row is measured
    assert peaks[1] - peaks[0] <= 4 * 9000, peaks


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
    # 8 / r^2 and r^3 overflow here: refused before any row is sampled
    for r in ("1e-300", "6e+102"):
        assert main(["expand", "--config", cfg, "50", r]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"expansion radius {r} " in err
        assert "r^3 and 8/r^2" in err


def test_expand_builds_one_h_stack(tmp_path, monkeypatch, capsys):
    # W comes from the sample, so the expansion terms need no H of their own
    calls = []
    stack = ewlab.construct.h_matrix_stack

    def counted(config, radii, s, c):
        calls.append(len(radii))
        return stack(config, radii, s, c)

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
    probe = ewlab.spectral_probe.probe_embedded
    calls = 0

    def third_fails(config, grid):
        nonlocal calls
        calls += 1
        if calls == 3:  # the single run, then swept couplings 1 and 2
            raise NoConvergenceError("probe at mu_1^2 = 1.0: no convergence")
        return probe(config, grid)

    monkeypatch.setattr(ewlab.spectral_probe, "probe_embedded", third_fails)
    cfg = write_config(tmp_path,
                       grid={"start": 0.0, "end": 40.0, "step": 0.01})
    assert main(["probe", "--config", cfg, "--sweep", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --sweep coupling 2 of 5: probe at "
                            "mu_1^2 = 1.0: no convergence\n")


@pytest.mark.parametrize("grid, free, message", [
    ("0,0.01,0.01", False, "a probe grid needs at least 1 interior node; "
                           "this one has 0"),
    ("0,0.02,0.01", True, "--free needs at least 3 interior grid nodes; "
                          "this one has 1"),
    ("0,0.03,0.01", True, "--free needs at least 3 interior grid nodes; "
                          "this one has 2"),
], ids=["2-points", "free-3-points", "free-4-points"])
def test_too_small_probe_grid_is_bad_input(tmp_path, capsys, grid, free,
                                           message):
    cfg = write_config(tmp_path)
    argv = ["probe", "--config", cfg, "--grid-override", grid]
    assert main(argv + ["--free"] * free) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_probe_free_excludes_sweep(tmp_path, capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("ran before rejecting --free --sweep")

    monkeypatch.setattr(ewlab.spectral_probe, "inverse_iteration", work)
    monkeypatch.setattr(ewlab.spectral_probe, "probe_embedded", work)
    cfg = write_config(tmp_path)
    assert main(["probe", "--config", cfg, "--free", "--sweep", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --free excludes --sweep 3\n"


def test_probe_free_modes(tmp_path):
    cfg = write_config(tmp_path, grid={"start": 0.0, "end": 20.0, "step": 0.01})
    out = tmp_path / "free.json"
    assert main(["probe", "--config", cfg, "--out", str(out), "--free"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["free_modes"]) == 3
    for mode in doc["free_modes"]:
        assert mode["abs_error"] <= 1e-10


def test_probe_free_draws_its_start_once(tmp_path, monkeypatch):
    # the three modes start from one seeded draw of the K interior values
    draws = []
    draw = ewlab.spectral_probe.seeded_start

    def counted(k, seed):
        draws.append((k, seed))
        return draw(k, seed)

    monkeypatch.setattr(ewlab.spectral_probe, "seeded_start", counted)
    cfg = write_config(tmp_path, seed=4)
    out = tmp_path / "free.json"
    assert main(["probe", "--config", cfg, "--out", str(out), "--free"]) == 0
    assert draws == [(999, 4)]
    assert len(json.loads(out.read_text())["free_modes"]) == 3


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


@pytest.mark.parametrize("command, lines", [("build", 1), ("verify", 0)])
def test_closed_stdout_is_one_error_line(tmp_path, command, lines):
    # build's reader leaves after one line of a CSV far larger than the
    # pipe's buffer, so a later write finds the pipe closed; verify's leaves
    # at once, and its report is still in stdout's buffer when main flushes
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cfg = write_config(tmp_path,
                       grid={"start": 0.0, "end": 50.0, "step": 0.01})
    proc = subprocess.Popen(
        [sys.executable, "-m", "ewlab.cli", command, "--config", cfg],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


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


def test_verify_names_a_quadrature_beyond_its_budget(tmp_path, capsys):
    # seed 0's fourth Gram triple is mu_1 with itself at r = 8.455...
    cfg = write_config(tmp_path, mu=[1e9, 1.0], a=[1.0, 1.0])
    assert main(["verify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 5382706331 panels on [0, 8.45514] at "
                            "mu = (1e+09, 1e+09) exceed the memory budget\n")


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
    (OSError(28, "No space left on device"), 1),
])
def test_exit_codes_by_failure_class(tmp_path, capsys, monkeypatch, exc, code):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(ewlab.verify, "run_verification", fail)
    assert main(["verify", "--config", write_config(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc}\n"
