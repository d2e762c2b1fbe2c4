"""Independent verification machinery for the construction.

Three oracles that never reuse the closed form they check:

  * composite Gauss-Legendre quadrature for the Gram integrals (checks the
    closed forms of G in the kernel module);
  * finite differences for derivatives (checks v', G' = s.ts, and the
    eigen-equation residual (-v_j'' + V v_j - mu_j^2 v_j));
  * classical Runge-Kutta shooting for the ODE itself (checks that the
    closed-form v_j actually solves -u'' + (V - mu_j^2) u = 0), each step
    taken as its 2x2 transfer matrix and the steps chained by a blocked
    prefix product.

Each convergence check is one call that fixes its steps and returns the
defect at h and defect(h)/defect(h/2). A grid check samples once, the finer
grid of its pair, whose every other radius is the coarser grid's, bit for bit.

Plus the log-log fit machinery for the decay orders: every asymptotic claim
is of the form |defect(r)| = O(r^-k), verified by fitting the decay exponent
on a log-spaced radius grid and asserting it lands within SLOPE_TOL of -k.
Defects here are oscillatory, with exact zeros at special radii, so the fit
runs on the bin-wise envelope (max |defect| per log-spaced bin) rather than
on raw points; raw points put log|defect| dips of -30 at the zeros and wreck
the regression. `large_r_fits` runs every large-r fit (V, the resolvent, v'
and each v_j) and V's scaled remainder from one sample of FIT_RADII.

Last, the radial lift: in R^d, u = r^{(1-d)/2} v_j leaves the residual
-u'' - ((d-1)/r) u' + (V - mu_j^2) u = ((d-1)(d-3)/4) r^{-2} u, so only
d = 1 and d = 3 (u_j = v_j/r) give eigenfunctions of -Delta + V(|x|).
residual_eigen_equation measures that residual by finite differences (at
d = 1 it is v_j's own), and dimension_obstruction gives its r^{-2} u term.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ewlab import construct
from ewlab.construct import potential_terms, resolvent_apply, sample_grid
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
    "QuadratureError",
    "SLOPE_TOL",
    "StepTooLargeError",
    "dimension_obstruction",
    "fd_second_derivative",
    "fit_decay_slope",
    "gram_derivative_defect",
    "inverse_small_r_slope",
    "large_r_fits",
    "quadrature_gram",
    "residual_eigen_equation",
    "shooting_compare",
]

# Decay exponents are asymptotic statements; fitted slopes get this margin.
SLOPE_TOL = 0.2

# Radii of every large-r fit: 200 log-spaced on [50, 400].
FIT_RADII = np.geomspace(50.0, 400.0, 200)
FIT_RADII.setflags(write=False)


# Steps h and h/2 of gram_derivative_defect's central differences.
_GRAM_STEPS = (1e-4, 5e-5)

# Node counts of the two Gauss-Legendre rules quadrature_gram compares, and
# the bound on their summed per-panel differences.
_RULES = (16, 24)
_TOL = 1e-12


class QuadratureError(ArithmeticError):
    """The two Gauss-Legendre rules of quadrature_gram disagree beyond _TOL."""


class StepTooLargeError(ValueError):
    """RK4 step fails the |V - mu^2| h^2 stability guard."""


@dataclass(frozen=True)
class FitReport:
    """Least-squares decay exponent of log|defect| against log r."""

    name: str
    slope: float
    expected_slope: float
    intercept: float
    points: int


@functools.cache
def _gauss_legendre(nodes: int) -> tuple:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    numpy.polynomial is imported here, on first use, so that importing the
    CLI does not load it.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def quadrature_gram(mu_i: float, mu_j: float, r: float) -> float:
    """integral_0^r sin(mu_i rho) sin(mu_j rho) drho, composite Gauss-Legendre.

    Independent of the closed form in the kernel module. [0, r] is cut into
    equal panels no wider than pi/(mu_i + mu_j), half a period of the
    integrand's highest frequency: on wider panels a rule's nodes can all
    land on zeros of the integrand (five equally spaced nodes on [0, 8 pi]
    do for mu = (1, 1)), and two rules then agree on 0. Every panel is
    integrated by the 16- and 24-node rules at once; the finer sum is
    returned, and QuadratureError is raised when the two rules' per-panel
    differences add up to more than _TOL. Rounding alone adds up to about
    2e-16 r, so _TOL = 1e-12 holds to r of a few thousand.
    """
    if mu_i <= 0.0 or mu_j <= 0.0:
        raise ValueError("frequencies must be positive")
    if r < 0.0:
        raise ValueError("negative radius")
    if r == 0.0:
        return 0.0
    edges = np.linspace(0.0, r, math.ceil(r * (mu_i + mu_j) / math.pi) + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)
    sums = []
    for nodes in _RULES:
        x, w = _gauss_legendre(nodes)
        offset = half[:, None] * x
        # sin(mu (mid + offset)) by angle addition: the rounding of mu mid,
        # about 1e-16 mu r, is then common to both rules and drops out of
        # their difference
        f = 1.0
        for mu in (mu_i, mu_j):
            f = f * (np.sin(mu * mid) * np.cos(mu * offset)
                     + np.cos(mu * mid) * np.sin(mu * offset))
        sums.append(half * np.sum(f * w, axis=1))
    coarse, fine = sums
    if np.sum(np.abs(fine - coarse)) > _TOL:
        raise QuadratureError(
            f"Gauss-Legendre rules {_RULES} disagree beyond tol = {_TOL:g} "
            f"on [0, {r:g}]")
    return float(np.sum(fine))


def gram_derivative_defect(config: ModelConfig,
                           radii: np.ndarray) -> tuple[float, float]:
    """Max-entry distance between the central FD of G and s ts over radii.

    G'(r) = s(r) ts(r) exactly and the FD defect is O(h^2). Returns the
    defect at h = 1e-4 and its ratio to the defect at h/2 (inf if that is
    0), which should be near 4.
    """
    radii = np.asarray(radii, dtype=float)
    s = trig_s(config, radii)
    sst = s[:, :, None] * s[:, None, :]
    fd = np.stack([(gram_matrix_stack(config, radii + h)
                    - gram_matrix_stack(config, radii - h)) / (2.0 * h)
                   for h in _GRAM_STEPS])
    defects = np.max(np.abs(fd - sst), axis=(1, 2, 3))
    return float(defects[0]), float(_halving_ratio(*defects))


def fd_second_derivative(values: np.ndarray, step: float) -> np.ndarray:
    """3-point second derivative along axis 0 at the interior points (K-2).

    Boundary points are dropped rather than one-sided so the truncation
    order stays uniformly O(h^2).
    """
    values = np.asarray(values)
    if values.shape[0] < 3:
        raise GridError("need at least 3 points for a second derivative")
    return (values[:-2] - 2.0 * values[1:-1] + values[2:]) / step**2


def _halving_ratio(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """coarse / fine entrywise, inf where fine is 0."""
    return np.divide(coarse, fine, out=np.full(coarse.shape, math.inf),
                     where=fine > 0.0)


def residual_eigen_equation(config: ModelConfig, grid: GridSpec,
                            dims: Sequence[int]) -> tuple:
    """Sup FD residuals of the radial eigen-equations on the grid interior.

    Entry (i, j) lifts v_j to u = r^{(1-d)/2} v_j with d = dims[i] and is the
    sup over interior nodes of |-u'' - ((d-1)/r) u' + (V - mu_j^2) u| with
    3-point u'' and central u'; d = 1 is |-v_j'' + V v_j - mu_j^2 v_j|, the
    one d that allows a grid starting at r = 0. For d = 1 and d = 3 this is
    pure truncation error; otherwise it approaches the obstructing term
    |(d-1)(d-3)/4| r^{-2} |u| as h -> 0. Returns (sup, ratio), each of shape
    (len(dims), n), from one sample of the halved grid: ratio is
    sup(h)/sup(h/2) (inf if that sup is 0).
    """
    if any(d < 1 for d in dims):
        raise ValueError("dimension must be >= 1")
    if grid.r_start <= 0.0 and any(d != 1 for d in dims):
        raise GridError("a lift to d != 1 needs a grid that starts at r > 0")
    if grid.count - 2 < 8:
        raise GridError("fewer than 8 interior points")
    ps = sample_grid(config, grid.halved().radii())
    radii, v_all, big_v_all = ps.radii, ps.v, ps.V
    del ps  # frees v' and W, which the stencil does not read
    sups = np.empty((2, len(dims), config.n))
    for stride, out in zip((2, 1), sups):
        h = grid.step * stride / 2.0
        r, v, big_v = radii[::stride, None], v_all[::stride], big_v_all[::stride]
        for i, d in enumerate(dims):
            # d = 1 skips the lift and the zero u' term, two (K, n) arrays
            u = v if d == 1 else r ** ((1.0 - d) / 2.0) * v
            residual = -fd_second_derivative(u, h)
            if d != 1:
                first = (u[2:] - u[:-2]) / (2.0 * h)
                residual = residual - (d - 1.0) / r[1:-1] * first
            residual = residual + (big_v[1:-1, None] - config.mu**2) * u[1:-1]
            out[i] = np.max(np.abs(residual), axis=0)
    return sups[0], _halving_ratio(*sups)


def _rk4_increment(u, p, q0, qm, q1, h: float) -> tuple:
    """Increments of (u, p) over one classical RK4 step of u' = p, p' = q u.

    q0, qm and q1 are q at the start, midpoint and end of the step.
    """
    hh = 0.5 * h
    k1u = p
    k1p = q0 * u
    k2u = p + hh * k1p
    k2p = qm * (u + hh * k1u)
    k3u = p + hh * k2p
    k3p = qm * (u + hh * k2u)
    k4u = p + h * k3p
    k4p = q1 * (u + h * k3u)
    h6 = h / 6.0
    return (h6 * (k1u + 2.0 * (k2u + k3u) + k4u),
            h6 * (k1p + 2.0 * (k2p + k3p) + k4p))


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I + a)(I + b) - I for stacks of 2x2 matrices stored entrywise.

    x[0], x[1], x[2], x[3] along axis 0 are the entries [[x0, x1], [x2, x3]].
    """
    return np.array([a[0] + b[0] + (a[0] * b[0] + a[1] * b[2]),
                     a[1] + b[1] + (a[0] * b[1] + a[1] * b[3]),
                     a[2] + b[2] + (a[2] * b[0] + a[3] * b[2]),
                     a[3] + b[3] + (a[2] * b[1] + a[3] * b[3])])


def _rk4_trajectory(q: np.ndarray, u: np.ndarray, p: np.ndarray,
                    h: float) -> np.ndarray:
    """u after every RK4 step of u'' = q u from (u, p): shape (steps + 1, n).

    q holds the half-step values, shape (2 steps + 1, n). RK4 is linear in
    (u, p), so each step is a 2x2 matrix I + E, where the columns of E are
    the step's increments from (1, 0) and (0, 1), built for all steps and
    all j at once. The running product is taken in chunks whose
    (chunk, n, 2, 2) stack stays within construct.BLOCK_BYTES, each as a
    two-level blocked prefix product: prefix products inside blocks of
    about sqrt(chunk) steps, all blocks at once, then one pass over the
    blocks that carries the state (u, p) through them and on into the next
    chunk. Products are kept as their difference from I and states are
    updated by increments, as a step-by-step RK4 loop does; that keeps the
    rounding error at the loop's level.
    """
    steps, n = (q.shape[0] - 1) // 2, q.shape[1]
    chunk = max(1, construct.BLOCK_BYTES // (64 * n))
    out = np.empty((steps + 1, n), dtype=np.result_type(q, u, p))
    out[0] = u
    for first in range(0, steps, chunk):
        m = min(chunk, steps - first)
        width = math.isqrt(m - 1) + 1
        blocks = -(-m // width)
        qs = q[2 * first:2 * (first + m) + 1]
        stages = (qs[:-1:2], qs[1::2], qs[2::2], h)
        e = np.zeros((4, blocks * width, n), dtype=out.dtype)
        e[0, :m], e[2, :m] = _rk4_increment(1.0, 0.0, *stages)
        e[1, :m], e[3, :m] = _rk4_increment(0.0, 1.0, *stages)
        e = e.reshape(4, blocks, width, n)
        for k in range(1, width):
            e[:, :, k] = _compose(e[:, :, k], e[:, :, k - 1])
        start = np.empty((2, blocks, 1, n), dtype=out.dtype)
        for b in range(blocks):
            start[:, b, 0] = u, p
            last = e[:, b, -1]
            u, p = (u + (last[0] * u + last[1] * p),
                    p + (last[2] * u + last[3] * p))
        u_chunk = start[0] + (e[0] * start[0] + e[1] * start[1])
        out[first + 1:first + m + 1] = u_chunk.reshape(-1, n)[:m]
    return out


def shooting_compare(config: ModelConfig,
                     grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Max |u - v_j| per j after integrating -u'' + (V - mu_j^2) u = 0 by RK4.

    Returns (dev, ratio), each of shape (n,): dev on the grid, and ratio =
    dev(h)/dev(h/2) against a second integration on the halved grid (inf if
    that deviation is 0); RK4 is O(h^4), so the ratio should be near 16.
    The integration starts at delta = grid.r_start > 0 from the closed-form
    data (v_j(delta), v_j'(delta)): the solution is fixed by that frame, so
    the comparison tests the ODE, not the initial condition. V is evaluated
    exactly on the half-step grid, keeping the classical O(h^4) order
    intact; the halved grid's half-step radii are sampled once, for every
    eigen-index and both grids (the grid's own are every other one).
    """
    if not grid.r_start > 0.0:
        raise GridError("shooting starts at r_start > 0")
    fine = grid.halved()
    h = fine.step
    ps = sample_grid(config,
                     fine.r_start + 0.5 * h * np.arange(2 * fine.count - 1))
    v, p = ps.v, ps.v_prime[0].copy()
    q = ps.V[:, None] - config.mu**2
    del ps  # frees v' and W before the integration
    devs = []
    for stride in (2, 1):
        step = h * stride
        if float(np.max(np.abs(q[::stride]))) * step * step > 0.1:
            raise StepTooLargeError("|V - mu^2| h^2 > 0.1; halve the step")
        u = _rk4_trajectory(q[::stride], v[0], p, step)
        devs.append(np.max(np.abs(u - v[::2 * stride]), axis=0))
    return devs[0], _halving_ratio(*devs)


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


def _inverse(config: ModelConfig, radii: np.ndarray) -> np.ndarray:
    """(A + G(r))^{-1} for every radius, a (K, n, n) stack."""
    eye = np.eye(config.n, dtype=complex)
    return resolvent_apply(config, radii,
                           np.broadcast_to(eye, (radii.size,) + eye.shape))


def _max_entry(stack: np.ndarray) -> np.ndarray:
    return np.max(np.abs(stack), axis=(1, 2))


def inverse_small_r_slope(config: ModelConfig) -> FitReport:
    """Small-r branch: ||(A+G(r))^{-1} - A^{-1}|| = O(r^3) as r -> 0."""
    radii = np.geomspace(1e-3, 0.3, 60)
    defect = _max_entry(_inverse(config, radii) - np.diag(1.0 / config.a))
    return fit_decay_slope(radii, defect, 3.0, "resolvent minus A^{-1}", bins=12)


def large_r_fits(config: ModelConfig) -> tuple[dict, np.ndarray]:
    """Decay fits of every large-r expansion, from one sample of FIT_RADII.

    Returns (fits, remainder). fits maps "potential", "resolvent", "vprime",
    "v1".."vn", in that order, to a [one-term, two-term] pair of FitReports:
    the defect after the first term should fall like r^-2, after the second
    like r^-3. remainder is |V - leading - second| r^3 per radius.

      V:     the two terms of construct.potential_terms, from the sample's W;
      (A+G)^{-1} = (2/r) I - (4/r^2)(A+H) + ..., max entry;
      v' = -(2/r) M c + (4/r^2) ((ts s) s + A M c + H M c) + ..., max entry;
      v = -(2/r) s + (4/r^2) (A s + H s) + ..., per v_j.

    s, M c and H are built once here and shared by the v', resolvent and
    v_j defects.
    """
    radii = FIT_RADII
    r = radii[:, None]
    rr = radii[:, None, None]
    ps = sample_grid(config, radii)
    pot_lead, pot_second = potential_terms(config, radii, ps.w)
    s = trig_s(config, radii)
    mc = config.mu * trig_c(config, radii)
    h = h_matrix_stack(config, radii)

    def pair(what, one, two, leading="leading term"):
        return [fit_decay_slope(radii, one, -2.0, f"{what} minus {leading}"),
                fit_decay_slope(radii, two, -3.0, f"{what} minus two terms")]

    v_rest = np.abs(ps.V - pot_lead - pot_second)
    bare = _inverse(config, radii) - (2.0 / rr) * np.eye(config.n)
    refined = bare + (4.0 / rr**2) * (np.diag(config.a) + h)
    lead = -(2.0 / r) * mc
    nxt = (4.0 / r ** 2) * (np.sum(s * s, axis=1)[:, None] * s
                            + config.a * mc + np.einsum("kij,kj->ki", h, mc))
    fits = {
        "potential": pair("V", np.abs(ps.V - pot_lead), v_rest),
        "resolvent": pair("resolvent", _max_entry(bare), _max_entry(refined),
                          leading="2/r"),
        "vprime": pair("v'", np.max(np.abs(ps.v_prime - lead), axis=1),
                       np.max(np.abs(ps.v_prime - lead - nxt), axis=1)),
    }
    v_two = -(2.0 / r) * s + (4.0 / r**2) * (
        config.a * s + np.einsum("kjl,kl->kj", h, s))
    one_v = np.abs(ps.v + (2.0 / r) * s)
    two_v = np.abs(ps.v - v_two)
    for j in range(config.n):
        fits[f"v{j + 1}"] = pair(f"v_{j + 1}", one_v[:, j], two_v[:, j])
    return fits, v_rest * radii**3


def dimension_obstruction(d: int) -> float:
    """Coefficient -(d-1)(d-3)/4 of the r^{-2} u term blocking the lift.

    Zero exactly when d is 1 or 3; the lift gives embedded eigenvalues only
    in those dimensions.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return -(d - 1.0) * (d - 3.0) / 4.0 + 0.0  # + 0.0 folds -0.0 at d = 3
