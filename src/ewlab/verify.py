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
import random
from dataclasses import dataclass, field

import numpy as np

from ewlab import __version__
from ewlab.construct import resolvent_apply, sample_blocks, sample_grid
from ewlab.kernel import (
    GridSpec,
    ModelConfig,
    gram_matrix_stack,
    h_bound,
    h_matrix_stack,
    trig_c,
    trig_s,
)
from ewlab.oracle import (
    SLOPE_TOL,
    condition_estimate,
    decay_fits,
    gram_derivative_defect,
    log_det_defects,
    quadrature_gram,
    residual_eigen_equation,
    shooting_compare,
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
    return _band(name, report.slope, report.expected_slope - SLOPE_TOL,
                 report.expected_slope + SLOPE_TOL, fitted=report.name,
                 intercept=report.intercept, points=report.points)


def _complex_normal(rng: random.Random, *shape: int) -> np.ndarray:
    """Draws whose real and imaginary parts are standard normal, C order."""
    return np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                     for _ in range(math.prod(shape))]).reshape(shape)


def run_verification(config: ModelConfig, seed: int = 0) -> VerificationReport:
    """Run the whole invariant suite for one model configuration.

    The checks' seeded inputs are drawn from random.Random(seed).
    """
    config.check_radius(400.0)  # the end of the largest window checked
    rng = random.Random(seed)
    checks: list = []
    mu = config.mu
    n = config.n

    # --- kernel: closed form vs quadrature on seeded (i, j, r) triples
    triples = [(rng.randrange(n), rng.randrange(n), rng.uniform(0.0, 30.0))
               for _ in range(20)]
    g = gram_matrix_stack(config, [r for _, _, r in triples])
    worst = max(abs(g[k, i, j] - quadrature_gram(mu[i], mu[j], r))
                for k, (i, j, r) in enumerate(triples))
    checks.append(_upper("gram_vs_quadrature", worst, 1e-10, triples=20))

    # --- kernel: positivity of the Gram quadratic form <xi, G xi>, 100
    # trials per radius; real up to round-off because G is real symmetric
    pos_radii = np.repeat([0.1, 1.0, 10.0, 100.0], 100)
    xi = _complex_normal(rng, pos_radii.size, n)
    forms = np.real(np.einsum("ki,kij,kj->k", xi.conj(),
                              gram_matrix_stack(config, pos_radii), xi))
    checks.append(_lower("gram_positivity", np.min(forms), 0.0, radii=4,
                         trials=100))

    # --- kernel: |g_ij| <= mu_i mu_j r^3 and the uniform h bounds
    sweep = np.linspace(0.01, 5.0, 200)[:, None, None]
    ratio = np.max(np.abs(gram_matrix_stack(config, sweep.ravel()))
                   / (np.outer(mu, mu) * (sweep * sweep * sweep)))  # not ** 3
    checks.append(_upper("gram_entry_cubic_bound", ratio, 1.0))
    hsweep = np.arange(0.05, 400.0, 0.05)[::40]
    h = h_matrix_stack(config, hsweep, trig_s(config, hsweep),
                       trig_c(config, hsweep))
    hratio = np.max(np.abs(h) / h_bound(config))
    # the diagonal ratio is |sin|, which can graze 1; allow rounding slack
    checks.append(_upper("h_entry_uniform_bound", hratio, 1.0 + 1e-12))

    # --- kernel: G' = s.ts by central FD, O(h^2)
    radii_fd = np.array([rng.uniform(0.5, 50.0) for _ in range(5)])
    d_h, order = gram_derivative_defect(config, radii_fd)
    checks.append(_upper("gram_derivative_defect", d_h, 1e-6, step=1e-4))
    checks.append(_band("gram_derivative_order", order, 3.0, 5.0))

    # --- construct: commutator identity [G, M^2] = -s.t(Mc) + (Mc).t(s)
    m2 = np.diag(mu**2)
    com_radii = np.array([rng.uniform(0.0, 100.0) for _ in range(50)])
    g = gram_matrix_stack(config, com_radii)
    s = trig_s(config, com_radii)
    sp = mu * trig_c(config, com_radii)
    defect = (g @ m2 - m2 @ g + s[:, :, None] * sp[:, None, :]
              - sp[:, :, None] * s[:, None, :])
    checks.append(_upper("commutator_identity", np.max(np.abs(defect)), 1e-12,
                         radii=50))

    # --- construct: resolvent at the origin is A^{-1}
    b = _complex_normal(rng, n)
    origin_defect = np.max(np.abs(
        resolvent_apply(config, [0.0], b[None, :, None])[0, :, 0]
        - b / config.a))
    checks.append(_upper("resolvent_origin", origin_defect, 1e-15))

    # --- construct: Dirichlet data at 0 are exact
    v0, _, big_v0, _ = sample_grid(config, [0.0], with_w=False)
    checks.append(_upper("dirichlet_origin",
                         np.max(np.abs(v0)) + abs(big_v0[0]), 0.0))

    # --- construct: log-det identities
    d1, d2, order = log_det_defects(config, np.array([0.9, 7.7, 31.0]))
    checks.append(_upper("log_det_first_derivative", d1, 1e-6, step=1e-4))
    checks.append(_upper("log_det_second_defect", d2, 1e-4, step=1e-3))
    checks.append(_band("log_det_second_order", order, 3.0, 5.0))

    # --- oracle: eigen-equation residual and RK4 shooting, per eigenvalue
    res_grid = GridSpec(0.0, 50.0, 1e-3)
    shoot_grid = GridSpec(0.1, 30.0, 1e-3)
    sups, orders = residual_eigen_equation(config, res_grid)
    devs, shoot_orders = shooting_compare(config, shoot_grid)
    for j, (sup, order, dev, shoot_order) in enumerate(
            zip(sups, orders, devs, shoot_orders)):
        checks.append(_upper(f"eigen_residual_v{j + 1}", sup, 1e-4,
                             step=res_grid.step))
        checks.append(_band(f"eigen_residual_order_v{j + 1}", order, 3.0, 5.0))
        checks.append(_upper(f"shooting_v{j + 1}", dev, 1e-7,
                             step=shoot_grid.step))
        checks.append(_band(f"shooting_order_v{j + 1}", shoot_order,
                            10.0, 24.0))

    # --- reality dichotomy on [0, 400] step 0.05, from one pass over the
    # step 0.025 grid, whose every other radius is the coarser grid's, bit
    # for bit. The pass also takes the maxima of the bound certificates
    # below: max |v| (1 + r^2)/r and max |v'| (1 + r) over every other
    # radius r > 0 and over every radius r > 0
    top = np.full(6, -math.inf)
    for block, r, v, v_prime, big_v, _ in sample_blocks(
            config, GridSpec(0.0, 400.0, 0.025), with_w=False):
        on_grid = big_v[-block.start % 2::2]
        maxima = [np.abs(on_grid.imag), np.abs(on_grid)]
        for stride in (2, 1):
            pick = slice(stride if block.start == 0 else -block.start % stride,
                         None, stride)
            rr = r[pick, None]
            maxima += [np.abs(v[pick]) * ((1 + rr**2) / rr),
                       np.abs(v_prime[pick]) * (1 + rr)]
        np.maximum(top, [np.max(x, initial=-math.inf) for x in maxima],
                   out=top)
    max_im, max_v, c_v, c_p, c_v_half, c_p_half = (float(x) for x in top)
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
    v_small = sample_grid(config, small, with_w=False)[0]

    def _small(ref):
        d = np.max(np.abs(v_small + ref / config.a), axis=1)
        return d[0] / d[1]

    checks.append(_band("small_r_sin_form_order",
                        _small(np.sin(np.outer(small, mu))),
                        12.0, 20.0, order="r^4"))
    checks.append(_band("small_r_linear_form_order",
                        _small(np.outer(small, mu)),
                        6.0, 10.0, order="r^3"))

    # --- decay bound certificates, stability under grid refinement: C_v in
    # |v| <= C_v r/(1+r^2) and C_p in |v'| <= C_p/(1+r), at both steps
    checks.append(_upper("eigenfunction_bound_stable",
                         abs(c_v - c_v_half) / c_v, 0.02, constant=c_v))
    checks.append(_upper("derivative_bound_stable",
                         abs(c_p - c_p_half) / c_p, 0.02, constant=c_p))

    # --- W is independent of the couplings (identical formula, no a)
    alt = ModelConfig(mu, config.a + 1.0)
    w_radii = np.array([0.5, 2.0, 11.0, 77.0])
    w_diff = np.max(np.abs(sample_grid(config, w_radii)[3]
                           - sample_grid(alt, w_radii)[3]))
    checks.append(_upper("w_coupling_independent", w_diff, 0.0))

    # --- decay fits, one-term and two-term per quantity, the resolvent's
    # small-r order, and V's two-term remainder times r^3, which stays bounded
    fits, remainder_r3 = decay_fits(config)
    for stem, rep in fits.items():
        checks.append(_fit_check(f"fit_{stem}", rep))
    checks.append(_upper("potential_remainder_r3", np.max(remainder_r3), 1e3))

    cond_radii = (1.0, 10.0, 100.0, 400.0)
    conds = condition_estimate(config, cond_radii)
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
