"""Verification report plumbing and the full invariant suite on small inputs."""

import json

import pytest

from ewlab.kernel import ModelConfig
from ewlab.verify import CheckResult, run_verification


@pytest.fixture(scope="module")
def real_report():
    return run_verification(ModelConfig([1.0], [1.0]), seed=0)


@pytest.fixture(scope="module")
def complex_report():
    return run_verification(ModelConfig([2.0, 1.0], [1.0 + 1.0j, 2.0]),
                            seed=0)


def test_check_result_line_format():
    c = CheckResult(name="demo", value=3.25e-11, tol=1e-10, passed=True,
                    criterion="value <= tol")
    assert c.line() == "PASS demo: value=3.25e-11 tol=1e-10 (value <= tol)"
    c = CheckResult(name="demo", value=2.0, tol=1.0, passed=False,
                    criterion="value <= tol")
    assert c.line().startswith("FAIL demo")


def test_real_suite_all_green(real_report):
    assert real_report.passed
    failing = [c.name for c in real_report.checks if not c.passed]
    assert failing == []


def test_complex_suite_all_green(complex_report):
    assert complex_report.passed
    failing = [c.name for c in complex_report.checks if not c.passed]
    assert failing == []


def test_expected_checks_present(real_report):
    names = {c.name for c in real_report.checks}
    for want in ("gram_vs_quadrature", "gram_positivity", "commutator_identity",
                 "eigen_residual_v1", "shooting_v1", "potential_reality",
                 "w_coupling_independent", "fit_potential_one_term",
                 "fit_resolvent_small_r", "potential_remainder_r3"):
        assert want in names, want


def test_reality_dichotomy_branches(real_report, complex_report):
    by_name = {c.name: c for c in real_report.checks}
    assert by_name["potential_reality"].criterion == "value <= tol"
    assert by_name["potential_complexity"].criterion.startswith("n/a")
    by_name = {c.name: c for c in complex_report.checks}
    assert by_name["potential_reality"].criterion.startswith("n/a")
    assert by_name["potential_complexity"].criterion == "value > tol"


def test_report_lines_end_with_overall(real_report):
    lines = real_report.lines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)
    k = len(real_report.checks)
    assert lines[-1] == f"PASS overall: {k}/{k} checks"


def test_report_json_is_strict(real_report):
    doc = json.loads(real_report.to_json())
    assert doc["pass"] is True
    assert doc["mu"] == [1.0]
    assert doc["a"] == [[1.0, 0.0]]
    # inf sentinels must not leak into the JSON
    assert "Infinity" not in real_report.to_json()
    na = doc["checks"]["potential_complexity"]
    assert na["tol"] is None


def test_suite_is_deterministic(real_report):
    again = run_verification(ModelConfig([1.0], [1.0]), seed=0)
    assert again.to_json() == real_report.to_json()


def test_diagnostics_reported(real_report):
    d = real_report.diagnostics
    assert d["sup_V_on_grid"] > 0.0
    assert set(d["condition_estimates"]) == {"1.0", "10.0", "100.0", "400.0"}
    assert all(v >= 1.0 for v in d["condition_estimates"].values())
