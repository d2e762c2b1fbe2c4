"""Independent verification machinery for the construction.

Three oracles that never reuse the closed form they check:

  * adaptive Simpson quadrature for the Gram integrals (checks the closed
    forms of G in the kernel module);
  * finite differences for derivatives (checks v', G' = s.ts, and the
    eigen-equation residual (-v_j'' + V v_j - mu_j^2 v_j));
  * classical Runge-Kutta shooting for the ODE itself (checks that the
    closed-form v_j actually solves -u'' + (V - mu_j^2) u = 0).

Plus the log-log fit machinery for the decay orders: every asymptotic claim
is of the form |defect(r)| = O(r^-k), verified by fitting the decay exponent
on a log-spaced radius grid and asserting it lands within SLOPE_TOL of -k.
Defects here are oscillatory, with exact zeros at special radii, so the fit
runs on the bin-wise envelope (max |defect| per log-spaced bin) rather than
on raw points; raw points put log|defect| dips of -30 at the zeros and wreck
the regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ewlab.construct import (
    eigenfunction_large_r,
    potential_asymptotics,
    resolvent_apply,
    sample_grid,
)
from ewlab.kernel import (
    GridError,
    GridSpec,
    ModelConfig,
    gram_matrix_stack,
    h_matrix_stack,
    trig_c,
    trig_s,
)

__all__ = [
    "FIT_RADII",
    "FitReport",
    "MaxDepthExceededError",
    "ResidualReport",
    "SLOPE_TOL",
    "StepTooLargeError",
    "eigenfunction_asymptotics",
    "fd_second_derivative",
    "fit_decay_slope",
    "gram_derivative_defect",
    "inverse_matrix_asymptotics",
    "inverse_small_r_slope",
    "potential_expansion_fits",
    "quadrature_gram",
    "residual_eigen_equation",
    "shooting_compare",
    "vprime_asymptotics",
]

# Decay exponents are asymptotic statements; fitted slopes get this margin.
SLOPE_TOL = 0.2

# Radii of every large-r fit: 200 log-spaced on [50, 400].
FIT_RADII = np.geomspace(50.0, 400.0, 200)
FIT_RADII.setflags(write=False)


class MaxDepthExceededError(ArithmeticError):
    """Adaptive quadrature exceeded the recursion-depth cap."""


class StepTooLargeError(ValueError):
    """RK4 step fails the |V - mu^2| h^2 stability guard."""


@dataclass(frozen=True)
class ResidualReport:
    """Sup of an FD residual on a grid plus its step-halving ratio."""

    j: int
    sup_residual: float
    grid: GridSpec
    convergence_ratio: float


@dataclass(frozen=True)
class FitReport:
    """Least-squares decay exponent of log|defect| against log r."""

    name: str
    slope: float
    expected_slope: float
    intercept: float
    points: int

    @property
    def ok(self) -> bool:
        return abs(self.slope - self.expected_slope) <= SLOPE_TOL


def _simpson_step(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= 60:
        raise MaxDepthExceededError("adaptive Simpson exceeded depth 60")
    return (_simpson_step(f, a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1)
            + _simpson_step(f, m, fm, rm, frm, b, fb, right, 0.5 * tol,
                            depth + 1))


def quadrature_gram(mu_i: float, mu_j: float, r: float,
                    tol: float = 1e-12) -> float:
    """integral_0^r sin(mu_i rho) sin(mu_j rho) drho by adaptive Simpson.

    Independent of the closed form in the kernel module. [0, r] is first cut
    into equal panels no wider than pi/(mu_i + mu_j): a wider start lets all
    five first nodes land on zeros of the integrand (r = 8 pi, mu = (1, 1)
    returns 0), which fakes convergence. Each panel then refines until its
    local Richardson error estimate drops below its share of tol.
    """
    if tol < 1e-13:
        raise ValueError("tolerance below the double-precision floor")
    if mu_i <= 0.0 or mu_j <= 0.0:
        raise ValueError("frequencies must be positive")
    if r < 0.0:
        raise ValueError("negative radius")
    if r == 0.0:
        return 0.0

    def f(rho: float) -> float:
        return math.sin(mu_i * rho) * math.sin(mu_j * rho)

    panels = math.ceil(r * (mu_i + mu_j) / math.pi)
    total = 0.0
    a, fa = 0.0, f(0.0)
    for k in range(1, panels + 1):
        b = r if k == panels else r * k / panels
        m = 0.5 * (a + b)
        fm, fb = f(m), f(b)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        total += _simpson_step(f, a, fa, m, fm, b, fb, whole,
                               tol * (b - a) / r, 0)
        a, fa = b, fb
    return total


def gram_derivative_defect(config: ModelConfig, radii: np.ndarray,
                           h: float) -> float:
    """Max-entry distance between the central FD of G and s ts over radii.

    G'(r) = s(r) ts(r) exactly; the FD defect is O(h^2), so halving h should
    shrink the return value by about 4.
    """
    if not h > 0.0:
        raise ValueError("step must be positive")
    radii = np.asarray(radii, dtype=float)
    fd = (gram_matrix_stack(config, radii + h)
          - gram_matrix_stack(config, radii - h)) / (2.0 * h)
    s = trig_s(config, radii)
    return float(np.max(np.abs(fd - s[:, :, None] * s[:, None, :])))


def fd_second_derivative(values: np.ndarray, step: float) -> np.ndarray:
    """3-point second derivative along axis 0 at the interior points (K-2).

    Boundary points are dropped rather than one-sided so the truncation
    order stays uniformly O(h^2).
    """
    values = np.asarray(values)
    if values.shape[0] < 3:
        raise GridError("need at least 3 points for a second derivative")
    return (values[:-2] - 2.0 * values[1:-1] + values[2:]) / step**2


def residual_eigen_equation(config: ModelConfig,
                            grid: GridSpec) -> list[ResidualReport]:
    """Sup of |-v_j'' + V v_j - mu_j^2 v_j| on the grid interior, FD v_j''.

    One report per eigen-index j, all from one sample per grid. Each
    report's convergence_ratio is sup(h)/sup(h/2) from a second pass on the
    halved grid; the stencil is O(h^2), so the ratio should be near 4.
    """

    def _sups(g: GridSpec) -> np.ndarray:
        radii = g.radii()
        if radii.size - 2 < 8:
            raise GridError("fewer than 8 interior points")
        ps = sample_grid(config, radii)
        second = fd_second_derivative(ps.v, g.step)
        residual = -second + (ps.V[1:-1, None] - config.mu**2) * ps.v[1:-1]
        return np.max(np.abs(residual), axis=0)

    sup_h = _sups(grid)
    sup_half = _sups(grid.halved())
    reports = []
    for j in range(config.n):
        ratio = sup_h[j] / sup_half[j] if sup_half[j] > 0.0 else math.inf
        reports.append(ResidualReport(j=j, sup_residual=float(sup_h[j]),
                                      grid=grid, convergence_ratio=float(ratio)))
    return reports


def _rk4_deviation(q: np.ndarray, v: np.ndarray, p: complex,
                   h: float) -> float:
    """Max |u - v[::2]| along RK4 for u'' = q u from (v[0], p); half-step q, v."""
    vj = [complex(z) for z in v[::2]]
    qh = [complex(z) for z in q]
    u = vj[0]
    hh = 0.5 * h
    h6 = h / 6.0
    worst = 0.0
    for k in range(len(vj) - 1):
        q0 = qh[2 * k]
        qm = qh[2 * k + 1]
        q1 = qh[2 * k + 2]
        k1u = p
        k1p = q0 * u
        k2u = p + hh * k1p
        k2p = qm * (u + hh * k1u)
        k3u = p + hh * k2p
        k3p = qm * (u + hh * k2u)
        k4u = p + h * k3p
        k4p = q1 * (u + h * k3u)
        u = u + h6 * (k1u + 2.0 * (k2u + k3u) + k4u)
        p = p + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
        dev = abs(u - vj[k + 1])
        if dev > worst:
            worst = dev
    return worst


def shooting_compare(config: ModelConfig, grid: GridSpec) -> np.ndarray:
    """Max |u - v_j| per j after integrating -u'' + (V - mu_j^2) u = 0 by RK4.

    The integration starts at delta = grid.r_start > 0 from the closed-form
    data (v_j(delta), v_j'(delta)): the solution is fixed by that frame, so
    the comparison tests the ODE, not the initial condition. V is evaluated
    exactly on the half-step grid, keeping the classical O(h^4) order intact;
    that grid is sampled once for every eigen-index.
    """
    if not grid.r_start > 0.0:
        raise GridError("shooting starts at r_start > 0")
    h = grid.step
    half_radii = grid.r_start + 0.5 * h * np.arange(2 * grid.count - 1)
    ps = sample_grid(config, half_radii)
    q = ps.V[:, None] - config.mu**2
    if float(np.max(np.abs(q))) * h * h > 0.1:
        raise StepTooLargeError("|V - mu^2| h^2 > 0.1; halve the step")
    return np.array([
        _rk4_deviation(q[:, j], ps.v[:, j], complex(ps.v_prime[0, j]), h)
        for j in range(config.n)
    ])


def fit_decay_slope(radii: np.ndarray, defects: np.ndarray, expected: float,
                    name: str, bins: int = 25) -> FitReport:
    """Fit log|defect| = slope log r + intercept on the bin-wise envelope.

    Radii are partitioned into log-spaced bins; each bin contributes its
    largest |defect| at the radius where it occurs. Exact zeros (and bins
    left empty) drop out. Needs at least 5 surviving bins.
    """
    radii = np.asarray(radii, dtype=float)
    defects = np.abs(np.asarray(defects, dtype=float))
    if radii.shape != defects.shape or radii.ndim != 1:
        raise ValueError("radii and defects must be matching 1-d arrays")
    edges = np.geomspace(radii.min(), radii.max(), bins + 1)
    edges[-1] *= 1.0 + 1e-12  # right-closed last bin
    log_r = []
    log_d = []
    for k in range(bins):
        mask = (radii >= edges[k]) & (radii < edges[k + 1]) & (defects > 0.0)
        if not np.any(mask):
            continue
        top = np.argmax(defects[mask])
        log_r.append(math.log(radii[mask][top]))
        log_d.append(math.log(defects[mask][top]))
    if len(log_r) < 5:
        raise ValueError(f"{name}: too few nonzero envelope points to fit")
    slope, intercept = np.polyfit(np.array(log_r), np.array(log_d), 1)
    return FitReport(name=name, slope=float(slope), expected_slope=expected,
                     intercept=float(intercept), points=len(log_r))


def _expansion_fits(radii: np.ndarray, one_term: np.ndarray,
                    two_term: np.ndarray, what: str,
                    leading: str = "leading term") -> list[FitReport]:
    """Fits of the defects after one term (order r^-2) and two (r^-3)."""
    return [
        fit_decay_slope(radii, one_term, -2.0, f"{what} minus {leading}"),
        fit_decay_slope(radii, two_term, -3.0, f"{what} minus two terms"),
    ]


def potential_expansion_fits(config: ModelConfig) -> list[FitReport]:
    """Decay fits for the two-term large-r expansion of V.

    |V - leading| should fall like r^-2 and |V - leading - second| like r^-3.
    """
    radii = FIT_RADII
    big_v = sample_grid(config, radii).V
    terms = potential_asymptotics(config, radii)
    return _expansion_fits(radii, np.abs(big_v - terms.leading),
                           np.abs(big_v - terms.leading - terms.second), "V")


def eigenfunction_asymptotics(config: ModelConfig) -> list[list]:
    """Decay fits for the large-r expansion of each v_j: orders r^-2, r^-3.

    One [one-term, two-term] pair of FitReports per eigen-index j, all from
    one sample.
    """
    radii = FIT_RADII
    v = sample_grid(config, radii).v
    one_term = np.abs(v + (2.0 / radii[:, None]) * trig_s(config, radii))
    two_term = np.abs(v - eigenfunction_large_r(config, radii))
    return [_expansion_fits(radii, one_term[:, j], two_term[:, j],
                            f"v_{j + 1}") for j in range(config.n)]


def _inverse(config: ModelConfig, radii: np.ndarray) -> np.ndarray:
    """(A + G(r))^{-1} for every radius, a (K, n, n) stack."""
    eye = np.eye(config.n, dtype=complex)
    return resolvent_apply(config, radii,
                           np.broadcast_to(eye, (radii.size,) + eye.shape))


def _max_entry(stack: np.ndarray) -> np.ndarray:
    return np.max(np.abs(stack), axis=(1, 2))


def inverse_matrix_asymptotics(config: ModelConfig) -> list[FitReport]:
    """Decay fits for the resolvent: (A+G(r))^{-1} = (2/r) I - (4/r^2)(A+H) + ...

    The bare defect against (2/r) I falls like r^-2; after the Neumann
    refinement the defect falls like r^-3.
    """
    radii = FIT_RADII
    rr = radii[:, None, None]
    bare = _inverse(config, radii) - (2.0 / rr) * np.eye(config.n)
    refined = bare + (4.0 / rr**2) * (np.diag(config.a)
                                      + h_matrix_stack(config, radii))
    return _expansion_fits(radii, _max_entry(bare), _max_entry(refined),
                           "resolvent", leading="2/r")


def inverse_small_r_slope(config: ModelConfig) -> FitReport:
    """Small-r branch: ||(A+G(r))^{-1} - A^{-1}|| = O(r^3) as r -> 0."""
    radii = np.geomspace(1e-3, 0.3, 60)
    defect = _max_entry(_inverse(config, radii) - np.diag(1.0 / config.a))
    return fit_decay_slope(radii, defect, 3.0, "resolvent minus A^{-1}", bins=12)


def vprime_asymptotics(config: ModelConfig) -> list[FitReport]:
    """Decay fits for v': leading term -(2/r) M c, then the full r^-2 term.

    v'(r) = -(2/r) M c + (4/r^2) ((ts s) s + A M c + H M c) + O(r^-3).
    """
    radii = FIT_RADII
    v_prime = sample_grid(config, radii).v_prime
    s = trig_s(config, radii)
    mc = config.mu * trig_c(config, radii)
    h_mc = np.einsum("kij,kj->ki", h_matrix_stack(config, radii), mc)
    lead = -(2.0 / radii[:, None]) * mc
    nxt = (4.0 / radii[:, None] ** 2) * (
        np.sum(s * s, axis=1)[:, None] * s + config.a * mc + h_mc)
    return _expansion_fits(radii, np.max(np.abs(v_prime - lead), axis=1),
                           np.max(np.abs(v_prime - lead - nxt), axis=1), "v'")
