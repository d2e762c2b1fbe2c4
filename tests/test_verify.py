"""Verification report plumbing and the full invariant suite on small inputs."""

import json
import tracemalloc
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

import ewlab.construct
import ewlab.kernel
import ewlab.oracle
import ewlab.verify
from ewlab.cli import load_config
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


def test_non_positive_gram_form_fails_its_check(monkeypatch):
    # negating the first matrix of the positivity stack (the only stack of
    # 400 radii) makes one of its quadratic forms negative
    stack = ewlab.verify.gram_matrix_stack

    def broken(config, radii):
        g = stack(config, radii)
        if len(radii) == 400:
            g[0] *= -1.0
        return g

    monkeypatch.setattr(ewlab.verify, "gram_matrix_stack", broken)
    report = run_verification(ModelConfig([1.0], [1.0]), seed=0)
    failing = [line for line in report.lines() if line.startswith("FAIL")]
    assert len(failing) == 2
    assert failing[0].startswith("FAIL gram_positivity: value=-")
    assert failing[1].startswith("FAIL overall")


def test_swapped_h_coefficients_fail_the_gram_checks(monkeypatch):
    # commutator_identity is the coefficient form's own identity, so on a
    # right H it reads only the builder's rounding; the checks independent
    # of that form must still catch alpha_12 and beta_12 swapped
    stack = ewlab.kernel.h_matrix_stack

    def swapped(config, radii, s, c):
        h = stack(config, radii, s, c)
        mu = config.mu
        alpha = mu[1] / (mu[0] - mu[1]) / (mu[0] + mu[1])
        beta = mu[0] / (mu[0] - mu[1]) / (mu[0] + mu[1])
        h[:, 0, 1] = h[:, 1, 0] = (beta * (s[:, 0] * c[:, 1])
                                   - alpha * (c[:, 0] * s[:, 1]))
        return h

    for module in (ewlab.kernel, ewlab.construct, ewlab.oracle, ewlab.verify):
        monkeypatch.setattr(module, "h_matrix_stack", swapped)
    report = run_verification(ModelConfig([3.0, 2.0, 1.0], [1.0] * 3), seed=0)
    failing = {c.name for c in report.checks if not c.passed}
    assert {"gram_vs_quadrature", "gram_derivative_defect"} <= failing


# A wrong sample must fail verify: (mutation of (r, v, V), check families
# that must be among the failures). At 1e-6 shooting carries most of the
# power; V + 1e-6 e^{-r} is also nonzero at the origin. At 1e-3 the
# log-det and residual defects fail too.
MUTATIONS = {
    "V_times_1_plus_1e-6": (
        lambda r, v, big_v: (v, big_v * (1.0 + 1e-6)),
        ("log_det_second_order", "eigen_residual_order_v*", "shooting_v*")),
    "V_plus_1e-6_exp": (
        lambda r, v, big_v: (v, big_v + 1e-6 * np.exp(-r)),
        ("dirichlet_origin", "shooting_v*")),
    "v_times_1_plus_1e-6": (
        lambda r, v, big_v: (v * (1.0 + 1e-6), big_v),
        ("shooting_v*", "shooting_order_v*")),
    "V_times_1_plus_1e-3": (
        lambda r, v, big_v: (v, big_v * (1.0 + 1e-3)),
        ("log_det_second_defect", "eigen_residual_v*", "shooting_v*")),
    "V_plus_1e-3_sin": (
        lambda r, v, big_v: (v, big_v + 1e-3 * np.sin(6.0 * r) / (1.0 + r)),
        ("log_det_*", "eigen_residual*", "shooting_v*")),
    "v_times_1_plus_1e-3": (
        lambda r, v, big_v: (v * (1.0 + 1e-3), big_v),
        ("log_det_first_derivative", "shooting_v*", "shooting_order_v*")),
}


@pytest.mark.parametrize("mutation", ["none", *MUTATIONS])
@pytest.mark.parametrize("cfg", [
    ModelConfig([3.0, 2.0, 1.0], [1.0, 1.0, 1.0]),
    ModelConfig([2.0, 1.0], [1.0 + 1.0j, 2.0]),
], ids=["real_n3", "complex_n2"])
def test_a_mutated_sample_fails_its_check_families(cfg, mutation,
                                                   monkeypatch):
    # every sampling route (sample_blocks calls construct.sample_grid)
    # returns the mutated (v, V); the unmutated sample verifies
    sample = ewlab.construct.sample_grid
    mutate, families = MUTATIONS.get(mutation, (None, ()))

    def mutated(config, radii, **kwargs):
        v, v_prime, big_v, w = sample(config, radii, **kwargs)
        v, big_v = mutate(np.asarray(radii, dtype=float), v, big_v)
        return v, v_prime, big_v, w

    if mutate is not None:
        for module in (ewlab.construct, ewlab.oracle, ewlab.verify):
            monkeypatch.setattr(module, "sample_grid", mutated)
    report = run_verification(cfg, seed=0)
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed == (mutate is None), failing
    for family in families:
        assert any(fnmatch(name, family) for name in failing), family


def test_verification_memory_stays_below_six_mib():
    # every grid of the suite is streamed through sample_blocks, so the
    # peak is about one default block's working set (2.9 MB at n = 3) plus
    # the small checks: 4.8 MiB, where whole-grid samples took 11.2 MiB
    root = Path(__file__).resolve().parent.parent
    rc = load_config(str(root / "configs" / "demo.json"))
    run_verification(rc.model, seed=rc.seed)  # warm caches outside
    tracemalloc.start()
    try:
        run_verification(rc.model, seed=rc.seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20, peak
