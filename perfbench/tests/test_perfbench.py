"""Tests of the benchmark itself: inputs, correctness checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import ewlab.construct
import ewlab.linalg
from checks import check_output
from ewlab.cli import main as cli_main
from run import END_TO_END_UNITS
from spans import PER_LAYER, Tracer, layer_metrics
from workloads import CONFIGS_PER_RUN, WORKLOADS, make_config, write_configs

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main([str(a) for a in argv])


def _small_build(tmp_path, workload, end):
    """A workload's config cut to [0, end], built to CSV in-process."""
    doc = make_config(WORKLOADS[workload], 11)
    doc["grid"]["end"] = end
    cfg = tmp_path / f"{workload}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / f"{workload}.csv"
    assert _run(["build", "--config", cfg, "--out", out]) == 0
    return doc, cfg, out


def _argv(w, cfg, out):
    return [w.command[0], "--config", cfg, "--out", out, *w.command[1:]]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Untraced outputs for seed 11; build-wide is cut to [0, 5]."""
    tmp = tmp_path_factory.mktemp("outputs")
    done = {}
    for name in ("build-wide", "verify", "probe-sweep"):
        w = WORKLOADS[name]
        doc = make_config(w, 11)
        if name == "build-wide":
            doc["grid"]["end"] = 5.0
        cfg = tmp / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp / f"{name}.out"
        assert _run(_argv(w, cfg, out)) == 0
        done[name] = (doc, cfg, out)
    return done


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_with_fixed_shapes(name, tmp_path):
    w = WORKLOADS[name]
    assert make_config(w, 3, 1) == make_config(w, 3, 1)
    written = write_configs(w, 3, tmp_path)
    assert len(written) == CONFIGS_PER_RUN
    for index, (path, doc) in enumerate(written):
        assert json.loads(path.read_text()) == doc == make_config(w, 3, index)
    drawn = [make_config(w, seed, index)
             for seed in range(10) for index in range(CONFIGS_PER_RUN)]
    assert len({json.dumps(d) for d in drawn}) == len(drawn)
    start, end, step = w.grid
    for doc in drawn:
        mu = np.array(doc["mu"])
        assert mu.size == w.n and len(doc["a"]) == w.n
        assert np.all(np.diff(mu) <= -w.min_gap + 1e-6) and mu[-1] > 0
        if w.fixed_mu:
            assert tuple(doc["mu"]) == w.fixed_mu
        else:
            assert w.mu_range[0] <= mu.min() and mu.max() <= w.mu_range[1]
        for a in doc["a"]:
            re = a[0] if w.complex_couplings else a
            assert isinstance(a, list) == w.complex_couplings
            assert w.re_a_range[0] <= re <= w.re_a_range[1]
        assert doc["grid"] == {"start": start, "end": end, "step": step}
        if w.fixed_seed is not None:
            assert doc["seed"] == w.fixed_seed


# the verify config (n=3, real couplings) is built too, so the build check
# sees both kinds of coupling
@pytest.mark.parametrize("workload", ["verify", "build-wide"])
def test_build_check_rejects_one_perturbed_potential_cell(workload, tmp_path):
    doc, _, out = _small_build(tmp_path, workload, 20.0)
    assert check_output("build", doc, out) == []
    lines = out.read_text().splitlines()
    table = np.loadtxt(lines[1:], delimiter=",")
    row = 1 + int(np.random.default_rng(0).integers(3, len(lines) - 4))
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) + 1e-3 * float(np.max(np.abs(table[:, 1]))))
    lines[row] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    assert check_output("build", doc, out) != []


def test_build_check_rejects_truncated_table(tmp_path):
    doc, _, out = _small_build(tmp_path, "verify", 5.0)
    out.write_text("".join(out.read_text().splitlines(True)[:-1]))
    assert check_output("build", doc, out) != []


def test_verify_check_rejects_a_failed_check(outputs, tmp_path):
    doc, _, out = outputs["verify"]
    assert check_output("verify", doc, out) == []
    report = json.loads(out.read_text())
    report["checks"]["shooting_v2"]["pass"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    assert check_output("verify", doc, bad) != []


@pytest.mark.parametrize("where", ["results", "sweep"])
def test_probe_check_rejects_an_estimate_off_by_1e_2(outputs, tmp_path, where):
    doc, _, out = outputs["probe-sweep"]
    assert check_output("probe", doc, out) == []
    report = json.loads(out.read_text())
    if where == "results":
        report["results"][0]["eigval_estimate"][0] += 1e-2
    else:
        report["sweep"]["estimates"]["2"][3][0] += 1e-2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    assert check_output("probe", doc, bad) != []


@pytest.mark.parametrize("name", ["build-wide", "verify", "probe-sweep"])
def test_traced_and_untraced_outputs_are_identical(name, outputs, tmp_path):
    _, cfg, out = outputs[name]
    traced_out = tmp_path / "traced.out"
    with Tracer() as tracer:
        assert _run(_argv(WORKLOADS[name], cfg, traced_out)) == 0
    assert traced_out.read_bytes() == out.read_bytes()
    assert {s.layer for s in tracer.spans} >= {"cli", "construct", "linalg"}


def test_tracer_restores_every_patched_name():
    before = (ewlab.construct.sample_grid, ewlab.linalg.DenseLU.__init__,
              ewlab.linalg.TridiagonalLU.solve)
    with Tracer():
        assert ewlab.construct.sample_grid is not before[0]
    after = (ewlab.construct.sample_grid, ewlab.linalg.DenseLU.__init__,
             ewlab.linalg.TridiagonalLU.solve)
    assert after == before


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert set(layer_metrics([], 1.0)) | {"trace.overhead"} == {
        name for name, _, _ in PER_LAYER}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        END_TO_END_UNITS
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
