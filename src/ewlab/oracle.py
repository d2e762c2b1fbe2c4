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
defect at h and defect(h)/defect(h/2). A grid check samples the finer
grid of its pair, whose every other radius is the coarser grid's, bit for
bit, with sample_blocks: the residual in one pass, shooting one RK4 window
at a time. Neither holds a whole-grid sample, and each names itself when
that grid is too fine. Few-radius checks take one sample_grid.

Plus the log-log fit machinery for the decay orders: every asymptotic claim
is of the form |defect(r)| = O(r^-k), verified by fitting the decay exponent
on a log-spaced radius grid and asserting it lands within SLOPE_TOL of -k.
Defects here are oscillatory, with exact zeros at special radii, so the fit
runs on the bin-wise envelope (max |defect| per log-spaced bin) rather than
on raw points; raw points put log|defect| dips of -30 at the zeros and wreck
the regression. `decay_fits` runs every fit (V, the resolvent at large and
small r, v' and each v_j) and V's scaled remainder in one call.

The log-det route, `log_det_defects`, checks (log det(A+G))' = -ts v and
V = -2 (log det(A+G))'' through ratios det(I+X), X a small resolvent
increment, whose principal logarithm is branch-safe; the same resolvent
gives the exact 1-norm condition numbers of A + G(r).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

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
from ewlab.linalg import DenseLU

__all__ = [
    "FIT_RADII",
    "FitReport",
    "QuadratureError",
    "SLOPE_TOL",
    "StepTooLargeError",
    "condition_estimate",
    "decay_fits",
    "fd_second_derivative",
    "fit_decay_slope",
    "gram_derivative_defect",
    "log_det_defects",
    "quadrature_gram",
    "residual_eigen_equation",
    "shooting_compare",
]

# Decay exponents are asymptotic statements; fitted slopes get this margin.
SLOPE_TOL = 0.2

# Radii of every large-r fit: 2,000 log-spaced on [50, 400], 0.001 r apart
# (0.42 at r = 400), so that a bin's maximum finds the envelope of V's
# half-period pi / (2 mu_1) oscillation (0.52 at mu_1 = 3).
FIT_RADII = np.geomspace(50.0, 400.0, 2000)
FIT_RADII.setflags(write=False)


# Steps h and h/2 of gram_derivative_defect's central differences.
_GRAM_STEPS = (1e-4, 5e-5)

# log_det_defects' first-derivative step, and its second difference's h, h/2.
_LOG_DET_STEP = 1e-4
_LOG_DET_SECOND_STEPS = (1e-3, 5e-4)

# Node counts of the two Gauss-Legendre rules quadrature_gram compares, and
# the bound on their summed per-panel differences.
_RULES = (16, 24)
_TOL = 1e-12


class QuadratureError(ArithmeticError):
    """quadrature_gram's rules disagree beyond _TOL, or exceed its budget."""


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
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
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
    2e-16 r, so _TOL = 1e-12 holds to r of a few thousand. It is also
    raised, before any array exists, when a rule's (panels, nodes) array
    would exceed construct.BLOCK_BYTES: beyond 10,922 panels.
    """
    if mu_i <= 0.0 or mu_j <= 0.0:
        raise ValueError("frequencies must be positive")
    if r < 0.0:
        raise ValueError("negative radius")
    if r == 0.0:
        return 0.0
    panels = math.ceil(r * (mu_i + mu_j) / math.pi)
    if panels * max(_RULES) * 8 > construct.BLOCK_BYTES:
        raise QuadratureError(
            f"{panels} panels on [0, {r:g}] at mu = ({mu_i:g}, {mu_j:g}) "
            f"exceed the memory budget")
    edges = np.linspace(0.0, r, panels + 1)
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


def _refined(grid: GridSpec, times: int, oracle: str) -> GridSpec:
    """The grid at step / 2**times; one too fine names the oracle."""
    try:
        return GridSpec(grid.r_start, grid.r_end, grid.step / 2**times)
    except GridError as exc:
        raise GridError(f"{oracle} at step/{2**times}: {exc}") from exc


def _stencil_sups(v: np.ndarray, big_v: np.ndarray, h: float,
                  mu2: np.ndarray) -> np.ndarray:
    """Max |residual| over the interior radii of (v, V), shape (n,).

    v is radius-last, (n, K). -inf where there are fewer than 3 radii, so
    that it drops out of a running maximum.
    """
    if len(big_v) < 3:
        return np.full(len(v), -math.inf)
    residual = -fd_second_derivative(v.T, h).T
    residual = residual + (big_v[1:-1] - mu2[:, None]) * v[:, 1:-1]
    return np.max(np.abs(residual), axis=1)


def residual_eigen_equation(config: ModelConfig, grid: GridSpec) -> tuple:
    """Sup FD residuals of the eigen-equations on the grid interior.

    Entry j is the sup over interior nodes of |-v_j'' + V v_j - mu_j^2 v_j|
    with 3-point v_j'', pure truncation error. Returns (sup, ratio), each
    of shape (n,), from one pass of sample_blocks over the grid at half its
    step: ratio is sup(h)/sup(h/2) (inf if that sup is 0). The grid is
    every other radius of its halving. The stencil runs radius-last once
    per stride (2, then 1) on each block joined to the 4 radii before it; a
    running maximum keeps the sups, exactly as one max over the whole grid.
    """
    if grid.count - 2 < 8:
        raise GridError("fewer than 8 interior points")
    mu2 = config.mu**2
    sups = np.full((2, config.n), -math.inf)
    tail = (np.empty((config.n, 0)), np.empty(0))
    for block, _, v, _, big_v, _ in construct.sample_blocks(
            config, _refined(grid, 1, "residual_eigen_equation"),
            with_w=False):
        first = block.start - len(tail[1])
        x = [np.concatenate([t, y], axis=-1)
             for t, y in zip(tail, (v.T, big_v))]
        for k, stride in enumerate((2, 1)):
            np.maximum(sups[k], _stencil_sups(
                *(y[..., -first % stride::stride] for y in x),
                grid.step * stride / 2.0, mu2), out=sups[k])
        tail = [y[..., -4:] for y in x]
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
    """(I + a)(I + b) - I for stacks of 2x2 matrices, entry (i, j) at x[i, j].

    Entry (i, j) of a b is a[i, 0] b[0, j] + a[i, 1] b[1, j], all four at once.
    """
    return a + b + (a[:, :1] * b[:1] + a[:, 1:] * b[1:])


def _rk4_trajectory(q: np.ndarray, u: np.ndarray, p: np.ndarray,
                    h: float) -> tuple:
    """One chunk of RK4 steps of u'' = q u from (u, p): (u_steps, u, p).

    q holds the half-step values of m steps, shape (2 m + 1, n), best as a
    view of radius-last storage; u_steps is u after each step, shape (m, n),
    such a view, and (u, p) the state after the last.
    RK4 is linear in (u, p), so each step is a 2x2 matrix I + E, where the
    columns of E are the step's increments from (1, 0) and (0, 1), built
    for all steps and all j at once. The chunk is a two-level blocked
    prefix product: prefix products inside blocks of about sqrt(m) steps,
    all blocks at once, then one pass over the blocks that carries the
    state (u, p) through them. The stack is copied once into step-major
    order, (width, 2, 2, blocks, n), so that each prefix step runs on one
    contiguous e[k]. Products are kept as their difference from I and
    states are updated by increments, as a step-by-step RK4 loop does; that
    keeps the rounding error at the loop's level.
    """
    m, n = (q.shape[0] - 1) // 2, q.shape[1]
    dtype = np.result_type(q, u, p)
    width = math.isqrt(m - 1) + 1
    blocks = -(-m // width)
    q = q.T  # radius-last rows: each stage operation one loop over the steps
    stages = (q[:, :-1:2], q[:, 1::2], q[:, 2::2], h)
    e = np.zeros((2, 2, n, blocks * width), dtype=dtype)
    e[0, 0, :, :m], e[1, 0, :, :m] = _rk4_increment(1.0, 0.0, *stages)
    e[0, 1, :, :m], e[1, 1, :, :m] = _rk4_increment(0.0, 1.0, *stages)
    e = e.reshape(2, 2, n, blocks, width).transpose(4, 0, 1, 3, 2).copy()
    for k in range(1, width):
        e[k] = _compose(e[k], e[k - 1])
    start = np.empty((2, blocks, n), dtype=dtype)
    for b in range(blocks):
        start[:, b] = u, p
        last = e[-1, :, :, b]
        u, p = (u + (last[0, 0] * u + last[0, 1] * p),
                p + (last[1, 0] * u + last[1, 1] * p))
    u_steps = start[0] + (e[:, 0, 0] * start[0] + e[:, 0, 1] * start[1])
    return u_steps.transpose(2, 1, 0).reshape(n, -1)[:, :m].T, u, p


def shooting_compare(config: ModelConfig,
                     grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Max |u - v_j| per j after integrating -u'' + (V - mu_j^2) u = 0 by RK4.

    Returns (dev, ratio), each of shape (n,): dev on the grid, and ratio =
    dev(h)/dev(h/2) against a second integration at half the step (inf if
    that deviation is 0); RK4 is O(h^4), so the ratio should be near 16.
    The integration starts at delta = grid.r_start > 0 from the closed-form
    data (v_j(delta), v_j'(delta)): the solution is fixed by that frame, so
    the comparison tests the ODE, not the initial condition. V is evaluated
    exactly on the half-step grid, keeping the classical O(h^4) order
    intact. The grid is cut into windows of m steps, whose step-major RK4
    stack is about a quarter of construct.BLOCK_BYTES (real q). Each window
    samples its 4 m + 1 quarter-step radii with sample_blocks, keeps v and
    V, and runs one _rk4_trajectory chunk at h and up to two at h/2, each
    after its |q| h^2 <= 0.1 guard; only (u, p) and dev cross windows.
    """
    if not grid.r_start > 0.0:
        raise GridError("shooting starts at r_start > 0")
    quarter = _refined(grid, 2, "shooting_compare")
    mu2 = config.mu[:, None] ** 2
    chunk = max(1, construct.BLOCK_BYTES // (128 * config.n))
    runs = []
    for first in range(0, grid.count - 1, chunk):
        last = min(first + chunk, grid.count - 1)
        vs, big_vs = [], []
        for _, _, v, v_prime, big_v, _ in construct.sample_blocks(
                config, quarter.radii(slice(4 * first, 4 * last + 1)),
                with_w=False):
            if not runs:
                u = v[0].copy()
                runs = [(u, v_prime[0].copy(), np.abs(u - u))] * 2
            vs.append(v.T)
            big_vs.append(big_v)
        v, big_v = np.concatenate(vs, axis=1), np.concatenate(big_vs)
        for k, stride in enumerate((2, 1)):
            u, p, dev = runs[k]
            h = grid.step * stride / 2.0
            q = big_v[::stride] - mu2
            nodes = v[:, ::2 * stride].copy()
            steps = (q.shape[1] - 1) // 2
            for a in range(0, steps, chunk):
                b = min(a + chunk, steps)
                if float(np.max(np.abs(q[:, 2 * a:2 * b + 1]))) * h * h > 0.1:
                    raise StepTooLargeError(
                        "|V - mu^2| h^2 > 0.1; halve the step")
                u_steps, u, p = _rk4_trajectory(q[:, 2 * a:2 * b + 1].T,
                                                u, p, h)
                dev = np.maximum(dev, np.max(
                    np.abs(u_steps - nodes[:, a + 1:b + 1].T), axis=0))
            runs[k] = u, p, dev
    return runs[0][2], _halving_ratio(runs[0][2], runs[1][2])


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
    return resolvent_apply(config, radii, np.broadcast_to(
        np.eye(config.n), (len(radii), config.n, config.n)))


def _max_entry(stack: np.ndarray) -> np.ndarray:
    return np.max(np.abs(stack), axis=(1, 2))


def condition_estimate(config: ModelConfig, radii) -> np.ndarray:
    """Exact 1-norm condition numbers of A + G(r) at each radius, (K,)."""
    mats = gram_matrix_stack(config, radii) + np.diag(config.a)
    norm_a, norm_inv = (np.max(np.sum(np.abs(m), axis=1), axis=1)
                        for m in (mats, _inverse(config, radii)))
    return norm_a * norm_inv


def _log_det_ratios(config: ModelConfig, r_base: np.ndarray,
                    targets: list) -> np.ndarray:
    """log(det(A+G(r_to)) / det(A+G(r_base))) per r_to of targets, (T, K).

    Each is det(I + X), X = (A+G(r_base))^{-1} (G(r_to) - G(r_base)), from
    one resolvent solve that carries every increment. det(I+X) stays near
    1, so its principal logarithm, taken in complex, is branch-safe.
    """
    n = config.n
    base = gram_matrix_stack(config, r_base)
    dg = np.concatenate([gram_matrix_stack(config, r_to) - base
                         for r_to in targets], axis=2)
    x = resolvent_apply(config, r_base, dg).reshape(len(base), n, -1, n)
    x[:, np.arange(n), :, np.arange(n)] += 1.0  # I + X of every target
    dets = np.array([DenseLU(x[:, :, j]).det() for j in range(len(targets))])
    return np.log(dets.astype(complex))


def log_det_defects(config: ModelConfig,
                    radii: np.ndarray) -> tuple[float, float, float]:
    """Defects of f' = -ts v and V = -2 f'', f = log det(A+G), over radii.

    Returns (first, second, ratio): first is max |f' + ts v| with f' the
    central difference at h = 1e-4, one determinant ratio between r-h and
    r+h; second is max |V + 2 f''| with f'' the second difference at
    h = 1e-3; ratio is that defect over the one at h/2 (inf if that is 0),
    which should be near 4. One resolvent solve at r serves all four
    second-difference increments:
    (f(r+h) - 2f(r) + f(r-h))/h^2 = (log det(I+X_+) + log det(I+X_-))/h^2
    with X_pm = (A+G(r))^{-1} (G(r pm h) - G(r)).
    """
    radii = np.asarray(radii, dtype=float)
    h = _LOG_DET_STEP
    slope = _log_det_ratios(config, radii - h, [radii + h])[0] / (2.0 * h)
    steps = np.array(_LOG_DET_SECOND_STEPS)
    curvature = _log_det_ratios(config, radii, [
        radii + d * step for step in steps for d in (1.0, -1.0)
    ]).reshape(2, 2, -1).sum(axis=1) / steps[:, None] ** 2
    v, _, big_v, _ = sample_grid(config, radii, with_w=False)
    # a row-major s, as in decay_fits, keeps np.sum's order of addition
    s = np.ascontiguousarray(trig_s(config, radii))
    first = np.max(np.abs(slope + np.sum(s * v, axis=1)))
    second = np.max(np.abs(big_v + 2.0 * curvature), axis=1)
    return float(first), float(second[0]), float(_halving_ratio(*second))


def decay_fits(config: ModelConfig) -> tuple[dict, np.ndarray]:
    """Every decay fit of the construction, and V's scaled remainder.

    Returns (fits, remainder). fits maps check stems to FitReports in report
    order: "potential", "resolvent", "vprime", "v1".."vn", each with a
    "_one_term" fit, whose defect should fall like r^-2, and a "_two_term"
    fit, like r^-3; "resolvent_small_r" follows the resolvent's pair. The
    large-r fits share one pass of sample_blocks over FIT_RADII, each block
    reduced to its defects at once, and remainder is |V - leading - second|
    r^3 there.

      V:     the two terms of construct.potential_terms, from the sample's W;
      (A+G)^{-1} = (2/r) I - (4/r^2)(A+H) + ..., max entry;
      (A+G)^{-1} - A^{-1} = O(r^3) as r -> 0, max entry on [1e-3, 0.3];
      v' = -(2/r) M c + (4/r^2) ((ts s) s + A M c + H M c) + ..., max entry;
      v = -(2/r) s + (4/r^2) (A s + H s) + ..., per v_j.

    s, M c and H are built once a block and shared by the v', resolvent
    and v_j defects.
    """
    radii = FIT_RADII
    blocks = construct.sample_blocks(config, radii)
    defects = np.concatenate(
        [_large_r_defects(config, *block[1:]) for block in blocks], axis=1)
    fits = {}

    def pair(stem, what, row, leading="leading term"):
        fits[f"{stem}_one_term"], fits[f"{stem}_two_term"] = (
            fit_decay_slope(radii, defects[row], -2.0,
                            f"{what} minus {leading}"),
            fit_decay_slope(radii, defects[row + 1], -3.0,
                            f"{what} minus two terms"))

    pair("potential", "V", 0)
    pair("resolvent", "resolvent", 2, leading="2/r")
    small = np.geomspace(1e-3, 0.3, 60)
    fits["resolvent_small_r"] = fit_decay_slope(
        small, _max_entry(_inverse(config, small) - np.diag(1.0 / config.a)),
        3.0, "resolvent minus A^{-1}", bins=12)
    pair("vprime", "v'", 4)
    for j in range(config.n):
        pair(f"v{j + 1}", f"v_{j + 1}", 6 + 2 * j)
    return fits, defects[1] * radii**3


def _large_r_defects(config: ModelConfig, radii: np.ndarray, v: np.ndarray,
                     v_prime: np.ndarray, big_v: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """decay_fits' large-r defects at one block's radii and sample, shape
    (6 + 2 n, K): the one- and two-term defects of V, the resolvent, v'
    and each v_j, in that order."""
    r = radii[:, None]
    rr = radii[:, None, None]
    pot_lead, pot_second = potential_terms(config, radii, w)
    # row-major copies of the radius-last stacks: np.sum and einsum below
    # add in an order set by the layout, and these copies keep the bits
    s, c = trig_s(config, radii), trig_c(config, radii)
    s, c, h = (np.ascontiguousarray(x)
               for x in (s, c, h_matrix_stack(config, radii, s, c)))
    mc = config.mu * c
    bare = _inverse(config, radii) - (2.0 / rr) * np.eye(config.n)
    refined = bare + (4.0 / rr**2) * (np.diag(config.a) + h)
    lead = -(2.0 / r) * mc
    nxt = (4.0 / r ** 2) * (np.sum(s * s, axis=1)[:, None] * s
                            + config.a * mc + np.einsum("kij,kj->ki", h, mc))
    v_two = -(2.0 / r) * s + (4.0 / r**2) * (
        config.a * s + np.einsum("kjl,kl->kj", h, s))
    one_v = np.abs(v + (2.0 / r) * s)
    two_v = np.abs(v - v_two)
    return np.vstack([
        np.abs(big_v - pot_lead), np.abs(big_v - pot_lead - pot_second),
        _max_entry(bare), _max_entry(refined),
        np.max(np.abs(v_prime - lead), axis=1),
        np.max(np.abs(v_prime - lead - nxt), axis=1),
        *(x for j in range(config.n) for x in (one_v[:, j], two_v[:, j]))])

