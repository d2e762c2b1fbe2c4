"""Named verification checks and the report that strings them together.

Every check measures one scalar, holds it against a tolerance or band, and
records auxiliary convergence data (halving ratios, fit slopes, constants).
The tolerances are frozen, measured values with margin, not theoretical
bounds: the asymptotic statements fix decay orders, never constants, so
constants are reported rather than asserted.

Conventions for CheckResult.criterion:
    "value <= tol"        upper bound
    "value > tol"         strict lower bound (positivity-style checks)
    "lo <= value <= hi"   band, edges in aux["lo"], aux["hi"]
    "n/a (...)"           recorded but not compared in this mode
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ewlab import __version__
from ewlab.construct import (
    log_det_derivative,
    log_det_second_difference,
    potential_asymptotics,
    resolvent_apply,
    sample_grid,
    system_matrix,
)
from ewlab.kernel import (
    GridSpec,
    ModelConfig,
    gram_matrix_stack,
    gram_positivity_check,
    h_bound,
    h_matrix_stack,
    trig_c,
    trig_s,
)
from ewlab.linalg import condition_estimate
from ewlab.oracle import (
    FIT_RADII,
    eigenfunction_asymptotics,
    gram_derivative_defect,
    inverse_matrix_asymptotics,
    inverse_small_r_slope,
    potential_expansion_fits,
    quadrature_gram,
    residual_eigen_equation,
    shooting_compare,
    vprime_asymptotics,
)

__all__ = ["CheckResult", "VerificationReport", "run_verification"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tol: float
    passed: bool
    criterion: str
    aux: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: value={self.value:.6g} "
                f"tol={self.tol:.6g} ({self.criterion})")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            # inf marks "not compared"; strict JSON has no Infinity literal
            "tol": self.tol if math.isfinite(self.tol) else None,
            "pass": self.passed,
            "criterion": self.criterion,
            "aux": self.aux,
        }


@dataclass(frozen=True)
class VerificationReport:
    mu: list
    a: list                    # [re, im] pairs
    seed: int
    version: str
    checks: list
    diagnostics: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "a": self.a,
            "seed": self.seed,
            "version": self.version,
            "pass": self.passed,
            "checks": {c.name: c.to_dict() for c in self.checks},
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def lines(self) -> list:
        out = [c.line() for c in self.checks]
        out.append(("PASS" if self.passed else "FAIL")
                   + f" overall: {sum(c.passed for c in self.checks)}"
                   + f"/{len(self.checks)} checks")
        return out


def _upper(name, value, tol, **aux) -> CheckResult:
    return CheckResult(name=name, value=float(value), tol=float(tol),
                       passed=bool(value <= tol), criterion="value <= tol",
                       aux=aux)


def _lower(name, value, tol, **aux) -> CheckResult:
    return CheckResult(name=name, value=float(value), tol=float(tol),
                       passed=bool(value > tol), criterion="value > tol",
                       aux=aux)


def _band(name, value, lo, hi, **aux) -> CheckResult:
    aux = {"lo": lo, "hi": hi, **aux}
    return CheckResult(name=name, value=float(value), tol=float(hi),
                       passed=bool(lo <= value <= hi),
                       criterion="lo <= value <= hi", aux=aux)


def _not_applicable(name, value, note, **aux) -> CheckResult:
    return CheckResult(name=name, value=float(value), tol=float("inf"),
                       passed=True, criterion=f"n/a ({note})", aux=aux)


def _fit_check(name: str, report) -> CheckResult:
    return _band(name, report.slope, report.expected_slope - 0.2,
                 report.expected_slope + 0.2, fitted=report.name,
                 intercept=report.intercept, points=report.points)


def run_verification(config: ModelConfig, seed: int = 0) -> VerificationReport:
    """Run the whole invariant suite for one model configuration."""
    rng = np.random.default_rng(seed)
    checks: list = []
    mu = config.mu
    n = config.n

    # --- kernel: closed form vs quadrature on seeded (i, j, r) triples
    triples = []
    for _ in range(20):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        triples.append((i, j, float(rng.uniform(0.0, 30.0))))
    g = gram_matrix_stack(config, [r for _, _, r in triples])
    worst = max(abs(g[k, i, j] - quadrature_gram(mu[i], mu[j], r, 1e-12))
                for k, (i, j, r) in enumerate(triples))
    checks.append(_upper("gram_vs_quadrature", worst, 1e-10, triples=20))

    # --- kernel: positivity of the Gram quadratic form, 100 trials per radius
    pos_radii = np.repeat([0.1, 1.0, 10.0, 100.0], 100)
    z = rng.standard_normal((pos_radii.size, 2, n))
    low = np.min(gram_positivity_check(config, pos_radii,
                                       z[:, 0] + 1j * z[:, 1]))
    checks.append(_lower("gram_positivity", low, 0.0, radii=4, trials=100))

    # --- kernel: |g_ij| <= mu_i mu_j r^3 and the uniform h bounds
    sweep = np.linspace(0.01, 5.0, 200)
    ratio = np.max(np.abs(gram_matrix_stack(config, sweep))
                   / (np.outer(mu, mu) * sweep[:, None, None] ** 3))
    checks.append(_upper("gram_entry_cubic_bound", ratio, 1.0))
    hsweep = np.arange(0.05, 400.0, 0.05)[::40]
    hratio = np.max(np.abs(h_matrix_stack(config, hsweep)) / h_bound(config))
    # the diagonal ratio is |sin|, which can graze 1; allow rounding slack
    checks.append(_upper("h_entry_uniform_bound", hratio, 1.0 + 1e-12))

    # --- kernel: G' = s.ts by central FD, O(h^2)
    radii_fd = rng.uniform(0.5, 50.0, 5)
    d_h = gram_derivative_defect(config, radii_fd, 1e-4)
    d_half = gram_derivative_defect(config, radii_fd, 5e-5)
    checks.append(_upper("gram_derivative_defect", d_h, 1e-6, step=1e-4))
    checks.append(_band("gram_derivative_order", d_h / d_half, 3.0, 5.0))

    # --- construct: commutator identity [G, M^2] = -s.t(Mc) + (Mc).t(s)
    m2 = np.diag(mu**2)
    com_radii = rng.uniform(0.0, 100.0, 50)
    g = gram_matrix_stack(config, com_radii)
    s = trig_s(config, com_radii)
    sp = mu * trig_c(config, com_radii)
    defect = (g @ m2 - m2 @ g + s[:, :, None] * sp[:, None, :]
              - sp[:, :, None] * s[:, None, :])
    checks.append(_upper("commutator_identity", np.max(np.abs(defect)), 1e-12,
                         radii=50))

    # --- construct: resolvent at the origin is A^{-1}
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    origin_defect = np.max(np.abs(
        resolvent_apply(config, [0.0], b[None, :, None])[0, :, 0]
        - b / config.a))
    checks.append(_upper("resolvent_origin", origin_defect, 1e-15))

    # --- construct: Dirichlet data at 0 are exact
    ps0 = sample_grid(config, [0.0])
    checks.append(_upper("dirichlet_origin",
                         np.max(np.abs(ps0.v)) + abs(ps0.V[0]), 0.0))

    # --- construct: log-det identities
    ld_radii = np.array([0.9, 7.7, 31.0])
    ps_ld = sample_grid(config, ld_radii)
    d1 = np.max(np.abs(log_det_derivative(config, ld_radii, 1e-4)
                       + np.sum(trig_s(config, ld_radii) * ps_ld.v, axis=1)))
    checks.append(_upper("log_det_first_derivative", d1, 1e-6, step=1e-4))
    d2 = np.max(np.abs(ps_ld.V + 2.0 * log_det_second_difference(
        config, ld_radii, 1e-3)))
    d2_half = np.max(np.abs(ps_ld.V + 2.0 * log_det_second_difference(
        config, ld_radii, 5e-4)))
    checks.append(_upper("log_det_second_defect", d2, 1e-4, step=1e-3))
    checks.append(_band("log_det_second_order", d2 / d2_half, 3.0, 5.0))

    # --- oracle: eigen-equation residual and RK4 shooting, per eigenvalue
    res_grid = GridSpec(0.0, 50.0, 1e-3)
    shoot_grid = GridSpec(0.1, 30.0, 1e-3)
    residuals = residual_eigen_equation(config, res_grid)
    devs = shooting_compare(config, shoot_grid)
    devs_half = shooting_compare(config, shoot_grid.halved())
    for j, (rep, dev, dev_half) in enumerate(zip(residuals, devs, devs_half)):
        checks.append(_upper(f"eigen_residual_v{j + 1}", rep.sup_residual,
                             1e-4, step=res_grid.step))
        checks.append(_band(f"eigen_residual_order_v{j + 1}",
                            rep.convergence_ratio, 3.0, 5.0))
        checks.append(_upper(f"shooting_v{j + 1}", dev, 1e-7,
                             step=shoot_grid.step))
        checks.append(_band(f"shooting_order_v{j + 1}",
                            dev / dev_half if dev_half > 0 else 16.0,
                            10.0, 24.0))

    # --- reality dichotomy on [0, 400]
    grid = GridSpec(0.0, 400.0, 0.05)
    ps = sample_grid(config, grid.radii())
    max_im = float(np.max(np.abs(ps.V.imag)))
    max_v = float(np.max(np.abs(ps.V)))
    if config.is_real:
        checks.append(_upper("potential_reality", max_im,
                             1e-12 * (1.0 + max_v)))
        checks.append(_not_applicable("potential_complexity", max_im,
                                      "real couplings"))
    else:
        checks.append(_not_applicable("potential_reality", max_im,
                                      "complex mode"))
        checks.append(_lower("potential_complexity", max_im, 0.0))

    # --- small-r orders of v: sin form is O(r^4), linear form O(r^3)
    r0 = 0.02
    small = np.array([r0, r0 / 2])
    v_small = sample_grid(config, small).v

    def _small(ref):
        d = np.max(np.abs(v_small + ref / config.a), axis=1)
        return d[0] / d[1]

    checks.append(_band("small_r_sin_form_order",
                        _small(np.sin(np.outer(small, mu))),
                        12.0, 20.0, order="r^4"))
    checks.append(_band("small_r_linear_form_order",
                        _small(np.outer(small, mu)),
                        6.0, 10.0, order="r^3"))

    # --- decay bound certificates, stability under grid refinement
    def _bound_constants(sample):
        """C_v in |v| <= C_v r/(1+r^2) and C_p in |v'| <= C_p/(1+r), r > 0."""
        r = sample.radii[1:, None]
        return (float(np.max(np.abs(sample.v[1:]) * ((1 + r**2) / r))),
                float(np.max(np.abs(sample.v_prime[1:]) * (1 + r))))

    c_v, c_p = _bound_constants(ps)
    c_v_half, c_p_half = _bound_constants(
        sample_grid(config, GridSpec(0.0, 400.0, 0.025).radii()))
    checks.append(_upper("eigenfunction_bound_stable",
                         abs(c_v - c_v_half) / c_v, 0.02, constant=c_v))
    checks.append(_upper("derivative_bound_stable",
                         abs(c_p - c_p_half) / c_p, 0.02, constant=c_p))

    # --- W is independent of the couplings (identical formula, no a)
    alt = ModelConfig(mu, config.a + 1.0)
    w_radii = np.array([0.5, 2.0, 11.0, 77.0])
    w_diff = np.max(np.abs(sample_grid(config, w_radii).w
                           - sample_grid(alt, w_radii).w))
    checks.append(_upper("w_coupling_independent", w_diff, 0.0))

    # --- asymptotic decay fits, one-term and two-term defect per quantity
    def _fit_pair(stem, reports):
        for suffix, rep in zip(("one_term", "two_term"), reports):
            checks.append(_fit_check(f"fit_{stem}_{suffix}", rep))

    _fit_pair("potential", potential_expansion_fits(config))
    _fit_pair("resolvent", inverse_matrix_asymptotics(config))
    checks.append(_fit_check("fit_resolvent_small_r",
                             inverse_small_r_slope(config)))
    _fit_pair("vprime", vprime_asymptotics(config))
    for j, reps in enumerate(eigenfunction_asymptotics(config)):
        _fit_pair(f"v{j + 1}", reps)

    # --- two-term remainder of V scaled by r^3 stays bounded
    terms = potential_asymptotics(config, FIT_RADII)
    rem = (np.abs(sample_grid(config, FIT_RADII).V - terms.leading
                  - terms.second) * FIT_RADII**3)
    checks.append(_upper("potential_remainder_r3", np.max(rem), 1e3))

    cond_radii = (1.0, 10.0, 100.0, 400.0)
    conds = condition_estimate(system_matrix(config, cond_radii))
    diagnostics = {
        "sup_V_on_grid": max_v,
        "condition_estimates": {str(r): float(c)
                                for r, c in zip(cond_radii, conds)},
        "bound_constant_v": c_v,
        "bound_constant_v_prime": c_p,
    }
    return VerificationReport(
        mu=[float(x) for x in mu],
        a=[[float(z.real), float(z.imag)] for z in config.a],
        seed=seed,
        version=__version__,
        checks=checks,
        diagnostics=diagnostics,
    )
