"""Independent checks: quadrature, FD residuals, shooting, decay fits."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlab import construct, oracle
from ewlab.construct import sample_blocks, sample_grid
from ewlab.kernel import GridError, GridSpec, ModelConfig, gram_matrix_stack
from ewlab.oracle import (
    SLOPE_TOL,
    QuadratureError,
    StepTooLargeError,
    _compose,
    _rk4_increment,
    _rk4_trajectory,
    condition_estimate,
    fd_second_derivative,
    fit_decay_slope,
    decay_fits,
    gram_derivative_defect,
    quadrature_gram,
    residual_eigen_equation,
    shooting_compare,
)

from radial_lift import whole_grid_residual

CFG1 = ModelConfig([1.0], [1.0])
CFG3 = ModelConfig([3.0, 2.0, 1.0], [1.0, 1.0, 1.0])
CFGC = ModelConfig([2.0, 1.0], [1.0 + 1.0j, 2.0])


def test_quadrature_known_values():
    assert quadrature_gram(1.0, 1.0, 0.0) == 0.0
    assert abs(quadrature_gram(1.0, 1.0, math.pi) - math.pi / 2) <= 1e-12
    want = math.sin(1.0) / 2 - math.sin(3.0) / 6
    assert abs(quadrature_gram(2.0, 1.0, 1.0) - want) <= 1e-10


def test_quadrature_does_not_stop_on_zero_nodes():
    # r = 8 pi puts all five first Simpson nodes of [0, r] on zeros of sin^2
    r = 8.0 * math.pi
    want = r / 2 - math.sin(2 * r) / 4
    assert abs(quadrature_gram(1.0, 1.0, r) - want) <= 1e-10


def test_quadrature_equal_frequencies_near_eight_pi():
    r = 25.12861895876397
    want = r / 2 - math.sin(2 * r) / 4
    assert abs(quadrature_gram(1.0, 1.0, r) - want) <= 1e-10


def test_quadrature_distinct_frequencies_near_eight_pi():
    r = 25.129990038890405
    want = math.sin(2 * r) / 4 - math.sin(4 * r) / 8
    assert abs(quadrature_gram(3.0, 1.0, r) - want) <= 1e-10


def test_quadrature_far_from_the_origin():
    # the nodes' rounding of about 1e-16 mu r, different for the two rules,
    # would make them disagree beyond tol here
    r = 1000.0
    want = math.sin(2 * r) / 4 - math.sin(4 * r) / 8
    assert abs(quadrature_gram(3.0, 1.0, r) - want) <= 1e-10


def test_quadrature_input_validation():
    with pytest.raises(ValueError):
        quadrature_gram(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        quadrature_gram(0.0, 1.0, 1.0)


def test_quadrature_raises_when_its_rules_disagree(monkeypatch):
    # 2- and 3-node rules on the panels of sin(3 rho) sin(rho) over [0, 25]
    # (width pi/4 at most) differ far beyond tol
    monkeypatch.setattr(oracle, "_RULES", (2, 3))
    with pytest.raises(QuadratureError, match="disagree"):
        quadrature_gram(3.0, 1.0, 25.0)


def test_quadrature_budget_is_checked_before_any_array():
    # mu_1 = 1e9 with itself at r = 0.496 would be 315,763,408 panels, each
    # rule's node array GiBs
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match=(
                r"^315763408 panels on \[0, 0\.496\] at mu = \(1e\+09, "
                r"1e\+09\) exceed the memory budget$")):
            quadrature_gram(1e9, 1e9, 0.496)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grid_spec_basics():
    g = GridSpec(0.0, 1.0, 0.25)
    assert g.count == 5
    assert np.allclose(g.radii(), [0.0, 0.25, 0.5, 0.75, 1.0])
    fine = GridSpec(0.0, 1.0, 0.125)
    assert fine.count == 9
    assert np.array_equal(fine.radii()[::2], g.radii())


def test_grid_spec_validation():
    with pytest.raises(GridError):
        GridSpec(-1.0, 1.0, 0.1)
    with pytest.raises(GridError):
        GridSpec(0.0, 1.0, 0.0)
    with pytest.raises(GridError):
        GridSpec(1.0, 1.0, 0.1)
    with pytest.raises(GridError):
        GridSpec(0.0, 2.0, 1e-9)
    with pytest.raises(GridError):
        GridSpec(0.0, math.inf, 0.1)
    with pytest.raises(GridError, match="whole number of steps"):
        GridSpec(0.0, 10.0, 0.3)


def test_fd_second_derivative_quadratic():
    x = np.linspace(0.0, 1.0, 11)
    got = fd_second_derivative(3.0 * x**2, 0.1)
    assert np.allclose(got, 6.0, atol=1e-10, rtol=0.0)
    with pytest.raises(GridError):
        fd_second_derivative(np.array([1.0, 2.0]), 0.1)


def test_fd_second_derivative_order():
    x0 = 0.7

    def defect(h):
        vals = np.sin([x0 - h, x0, x0 + h])
        return abs(fd_second_derivative(vals, h)[0] + math.sin(x0))

    assert 3.0 <= defect(1e-3) / defect(5e-4) <= 5.0


def test_gram_derivative_defect_order():
    d1, ratio = gram_derivative_defect(CFG3, [2.7])
    assert d1 <= 1e-6
    assert 3.0 <= ratio <= 5.0


def test_residual_eigen_equation_converges():
    sup, ratio = residual_eigen_equation(CFG1, GridSpec(0.0, 20.0, 2e-3))
    assert sup.shape == ratio.shape == (1,)
    assert sup[0] <= 1e-3
    assert 3.0 <= ratio[0] <= 5.0


def test_residual_eigen_equation_all_indices():
    sup, ratio = residual_eigen_equation(CFG3, GridSpec(0.0, 10.0, 2e-3))
    assert sup.shape == ratio.shape == (3,)
    assert np.all(sup <= 1e-2)
    assert np.all((3.0 <= ratio) & (ratio <= 5.0))


@pytest.mark.parametrize("grid", [
    GridSpec(0.0, 50.0, 1e-3), GridSpec(0.1, 30.0, 1e-3),
    GridSpec(0.0, 400.0, 0.05), GridSpec(0.3, 7.7, 0.037),
])
def test_halved_grid_holds_the_grid_bit_for_bit(grid):
    # the oracles sample the grid at half its step in its place
    fine = GridSpec(grid.r_start, grid.r_end, grid.step / 2)
    assert np.array_equal(fine.radii()[::2], grid.radii())


def test_verify_fine_grid_holds_the_coarse_grid_bit_for_bit():
    # verify's [0, 400] pass samples the first for the second
    assert np.array_equal(GridSpec(0.0, 400.0, 0.025).radii()[::2],
                          GridSpec(0.0, 400.0, 0.05).radii())


@pytest.mark.parametrize("cfg", [CFG3, CFGC], ids=["n3_real", "n2_complex"])
def test_residual_stride_matches_separate_samples(cfg):
    grid = GridSpec(0.3, 10.3, 2e-3)

    def sup(g):
        v, _, big_v, _ = sample_grid(cfg, g.radii())
        second = fd_second_derivative(v, g.step)
        residual = -second + (big_v[1:-1, None] - cfg.mu**2) * v[1:-1]
        return np.max(np.abs(residual), axis=0)

    got, ratio = residual_eigen_equation(cfg, grid)
    want = sup(grid)
    assert np.array_equal(got, want)
    assert np.array_equal(
        ratio, want / sup(GridSpec(grid.r_start, grid.r_end, grid.step / 2)))


def test_residual_samples_once_for_every_dimension(monkeypatch):
    sampled = []

    def counted(config, radii, **kwargs):
        sampled.append(radii.count)
        yield from sample_blocks(config, radii, **kwargs)

    monkeypatch.setattr(construct, "sample_blocks", counted)
    # one pass over the grid at half its step serves both steps
    residual_eigen_equation(CFG3, GridSpec(1.0, 30.0, 1e-3))
    assert sampled == [GridSpec(1.0, 30.0, 5e-4).count]


def test_residual_needs_enough_interior_points():
    with pytest.raises(GridError):
        residual_eigen_equation(CFG1, GridSpec(0.0, 1.0, 0.2))


def test_shooting_reproduces_eigenfunction():
    dev, ratio = shooting_compare(CFG1, GridSpec(0.1, 10.0, 1e-3))
    assert dev.shape == ratio.shape == (1,)
    assert dev[0] <= 1e-8
    assert 10.0 <= ratio[0] <= 24.0


def test_shooting_requires_positive_start():
    with pytest.raises(GridError):
        shooting_compare(CFG1, GridSpec(0.0, 10.0, 1e-3))


def test_a_refined_grid_too_large_names_its_oracle():
    # both grids are admitted; the refinements the oracles sample are not
    with pytest.raises(GridError, match=r"^shooting_compare at step/4: "
                       r"more than 1e7 grid points$"):
        shooting_compare(CFG1, GridSpec(0.1, 3000.1, 1e-3))
    with pytest.raises(GridError, match=r"^residual_eigen_equation at "
                       r"step/2: more than 1e7 grid points$"):
        residual_eigen_equation(CFG1, GridSpec(0.0, 6000.0, 1e-3))


def test_shooting_rejects_unstable_step():
    with pytest.raises(StepTooLargeError):
        shooting_compare(CFG3, GridSpec(0.1, 10.1, 0.5))


def test_shooting_rejects_unstable_step_on_a_long_grid(monkeypatch):
    # 100 radii a block and RK4 chunks of 81 steps at n = 3; the runs have
    # 2,000 steps of h = 14 and 4,000 of h = 7, where RK4 on u'' = -9 u
    # grows over 8,000-fold a step: any one chunk integrated before its
    # guard would overflow and warn, and warnings fail the suite
    monkeypatch.setattr(construct, "BLOCK_BYTES", 100 * 312)
    with pytest.raises(StepTooLargeError, match=(
            r"^\|V - mu\^2\| h\^2 > 0\.1; halve the step$")):
        shooting_compare(CFG3, GridSpec(0.1, 28000.1, 14.0))


def _rk4_reference(q, v0, p, h):
    """u at every step of RK4 for u'' = q u from (v0, p); half-step q.

    The step-by-step loop the transfer-matrix path replaced, kept as its
    reference: the same stages, one radius at a time, in Python complex.
    """
    qh = [complex(z) for z in q]
    u = complex(v0)
    p = complex(p)
    hh = 0.5 * h
    h6 = h / 6.0
    us = [u]
    for k in range((len(qh) - 1) // 2):
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
        us.append(u)
    return np.array(us)


# RK4 chunks of CHUNK steps (BLOCK_BYTES of 128 n bytes a step): a chunk of
# 10 runs as 3 blocks of 4 steps, the last padded with 2 identity steps
CHUNK = 10
EDGE_STEPS = (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 19, 20, 21, 30, 31)


def _chunked_trajectory(q, u, p, h):
    """u at every step, shape (steps + 1, n), in shooting_compare's chunks.

    Chunks of BLOCK_BYTES // (128 n) steps from the first, each one call of
    _rk4_trajectory on the whole q's rows, carrying (u, p) to the next.
    """
    steps, n = (q.shape[0] - 1) // 2, q.shape[1]
    chunk = max(1, construct.BLOCK_BYTES // (128 * n))
    out = [np.asarray(u)[None]]
    for first in range(0, steps, chunk):
        m = min(chunk, steps - first)
        u_steps, u, p = _rk4_trajectory(q[2 * first:2 * (first + m) + 1],
                                        u, p, h)
        out.append(u_steps)
    return np.concatenate(out)


def _assert_matches_reference(q, v0, p, h):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "BLOCK_BYTES", 128 * q.shape[1] * CHUNK)
        got = _chunked_trajectory(q, v0, p, h)
    for j in range(q.shape[1]):
        want = _rk4_reference(q[:, j], v0[j], p[j], h)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got[:, j] - want)) <= 1e-12 * scale


@pytest.mark.parametrize("steps", EDGE_STEPS)
def test_transfer_matrix_rk4_matches_the_loop_at_chunk_edges(steps):
    # the complex potential of CFGC at the half-step radii of [0.1, 0.1 + h K]
    h = 0.05
    radii = 0.1 + 0.5 * h * np.arange(2 * steps + 1)
    v, v_prime, big_v, _ = sample_grid(CFGC, radii)
    q = big_v[:, None] - CFGC.mu**2
    _assert_matches_reference(q, v[0], v_prime[0], h)


@settings(max_examples=60, deadline=None)
@given(steps=st.sampled_from(EDGE_STEPS) | st.integers(1, 4 * CHUNK),
       n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       growth=st.floats(-400.0, 40.0))
def test_transfer_matrix_rk4_matches_the_loop_on_drawn_q(steps, n, seed,
                                                          growth):
    rng = np.random.default_rng(seed)
    h = 0.01
    q = (growth + 20.0 * rng.standard_normal((2 * steps + 1, n))
         + 20j * rng.standard_normal((2 * steps + 1, n)))
    v0, p = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    _assert_matches_reference(q, v0, p, h)


def _strided_rk4_trajectory(q, u, p, h):
    """_rk4_trajectory with its former (2, 2, blocks, width, n) stack, kept
    as its reference: the same products in the same order, each prefix
    step on the strided e[:, :, :, k]."""
    m, n = (q.shape[0] - 1) // 2, q.shape[1]
    dtype = np.result_type(q, u, p)
    width = math.isqrt(m - 1) + 1
    blocks = -(-m // width)
    stages = (q[:-1:2], q[1::2], q[2::2], h)
    e = np.zeros((2, 2, blocks * width, n), dtype=dtype)
    e[0, 0, :m], e[1, 0, :m] = _rk4_increment(1.0, 0.0, *stages)
    e[0, 1, :m], e[1, 1, :m] = _rk4_increment(0.0, 1.0, *stages)
    e = e.reshape(2, 2, blocks, width, n)
    for k in range(1, width):
        e[:, :, :, k] = _compose(e[:, :, :, k], e[:, :, :, k - 1])
    start = np.empty((2, blocks, 1, n), dtype=dtype)
    for b in range(blocks):
        start[:, b, 0] = u, p
        last = e[:, :, b, -1]
        u, p = (u + (last[0, 0] * u + last[0, 1] * p),
                p + (last[1, 0] * u + last[1, 1] * p))
    u_steps = start[0] + (e[0, 0] * start[0] + e[0, 1] * start[1])
    return u_steps.reshape(-1, n)[:m], u, p


@settings(max_examples=80, deadline=None)
@given(steps=st.sampled_from(EDGE_STEPS) | st.integers(1, 6000),
       n=st.integers(1, 5), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_step_major_rk4_is_the_strided_one_bit_for_bit(steps, n, real, seed):
    rng = np.random.default_rng(seed)
    q = -10.0 + 20.0 * rng.standard_normal((2 * steps + 1, n))
    u, p = rng.standard_normal((2, n))
    if not real:
        q = q + 20j * rng.standard_normal(q.shape)
        u = u + 1j * rng.standard_normal(n)
    got = _rk4_trajectory(q, u, p, 0.01)
    want = _strided_rk4_trajectory(q, u, p, 0.01)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("steps", [1, 4, 37])
def test_real_rk4_is_the_real_part_of_its_complex_cast(steps):
    # real couplings give a real q: the trajectory runs in float64 with the
    # bits of the complex one
    rng = np.random.default_rng(steps)
    q = -10.0 + 20.0 * rng.standard_normal((2 * steps + 1, 3))
    v0, p = rng.standard_normal((2, 3))
    real = _chunked_trajectory(q, v0, p, 0.01)
    cplx = _chunked_trajectory(q.astype(complex), v0, p, 0.01)
    assert real.dtype == float and cplx.dtype == complex
    assert real.tobytes() == cplx.real.tobytes()
    assert not np.any(cplx.imag)


def _whole_grid_shooting(cfg, grid):
    """shooting_compare from one sample_grid of the half-step radii."""
    fine = GridSpec(grid.r_start, grid.r_end, grid.step / 2)
    h = fine.step
    v, v_prime, big_v, _ = sample_grid(
        cfg, fine.r_start + 0.5 * h * np.arange(2 * fine.count - 1))
    q = big_v[:, None] - cfg.mu**2
    devs = []
    for stride in (2, 1):
        step = h * stride
        assert float(np.max(np.abs(q[::stride]))) * step * step <= 0.1
        u = _chunked_trajectory(q[::stride], v[0], v_prime[0], step)
        devs.append(np.max(np.abs(u - v[::2 * stride]), axis=0))
    return devs[0], devs[0] / devs[1]


# Blocks of 1, 7 and 13 radii: odd, so the stride-2 rows of a block start
# on either parity; a block of one radius has fewer radii than the four the
# stencil carries; and each RK4 window is sampled in several blocks (at
# n = 3, windows of 1, 5 and 10 steps, 5, 21 and 41 quarter-step radii)
@pytest.mark.parametrize("radii", [1, 7, 13])
@pytest.mark.parametrize("cfg", [CFG3, CFGC], ids=["n3_real", "n2_complex"])
def test_streamed_oracles_equal_the_whole_grid_bitwise(cfg, radii,
                                                       monkeypatch):
    monkeypatch.setattr(construct, "BLOCK_BYTES",
                        radii * 8 * cfg.n * (3 * cfg.n + 4))
    for grid in (GridSpec(0.0, 1.0, 0.01), GridSpec(0.3, 1.3, 0.01)):
        got = residual_eigen_equation(cfg, grid)
        want = (x[0] for x in whole_grid_residual(cfg, grid, (1,)))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    # 107 steps: at n = 3, chunks of 5 and 10 leave a short last window
    for grid in (GridSpec(0.1, 1.1, 0.01), GridSpec(0.1, 1.17, 0.01)):
        got = shooting_compare(cfg, grid)
        want = _whole_grid_shooting(cfg, grid)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_oracle_memory_does_not_grow_with_the_grid(monkeypatch):
    # 100 radii a block at n = 3: both grids are many blocks long
    monkeypatch.setattr(construct, "BLOCK_BYTES", 100 * 312)
    oracles = {
        "residual": lambda grid: residual_eigen_equation(CFG3, grid),
        "shooting": lambda grid: shooting_compare(CFG3, grid)}
    for name, run in oracles.items():
        peaks = []
        for end in (1.1, 4.1):
            grid = GridSpec(0.1, end, 1e-3)
            run(grid)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                run(grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 3,000 more grid radii, each 2 (residual) or 4 (shooting) sampled
        # radii, add no sample (72 B a radius at n = 3, over 400 KiB in all)
        # and no trajectory (24 B a step). What may be left is one 56 B
        # tuple a block that CPython's tuple free list keeps and tracemalloc
        # still counts: up to 7 KiB in a fresh process, 50 B once it is full
        assert peaks[1] - peaks[0] <= 16 << 10, (name, peaks)


def within_tol(rep):
    """The fitted slope lies within SLOPE_TOL of the expected one."""
    return abs(rep.slope - rep.expected_slope) <= SLOPE_TOL


def test_fit_recovers_synthetic_power_law():
    rng = np.random.default_rng(31)
    radii = np.geomspace(50.0, 400.0, 300)
    defects = 3.7 * radii**-2.5 * (0.2 + np.abs(np.cos(radii)))
    rep = fit_decay_slope(radii, defects, -2.5, "synthetic")
    assert abs(rep.slope - -2.5) <= 0.15
    assert within_tol(rep)
    # exact zeros drop out instead of poisoning the log
    defects[rng.integers(0, 300, size=40)] = 0.0
    rep = fit_decay_slope(radii, defects, -2.5, "synthetic with holes")
    assert abs(rep.slope - -2.5) <= 0.2


def test_fit_input_validation():
    radii = np.geomspace(50.0, 400.0, 30)
    with pytest.raises(ValueError):
        fit_decay_slope(radii, np.zeros(29), -2.0, "mismatch")
    with pytest.raises(ValueError, match="too few"):
        fit_decay_slope(radii, np.zeros(30), -2.0, "all zero")


def test_potential_expansion_fits():
    fits = decay_fits(CFG3)[0]
    one, two = fits["potential_one_term"], fits["potential_two_term"]
    assert (one.name, two.name) == ("V minus leading term",
                                    "V minus two terms")
    assert one.expected_slope == -2.0 and within_tol(one)
    assert two.expected_slope == -3.0 and within_tol(two)
    assert one.points >= 5 and two.points >= 5


def test_eigenfunction_asymptotics_fits():
    fits = decay_fits(CFG1)[0]
    assert list(fits) == [
        "potential_one_term", "potential_two_term", "resolvent_one_term",
        "resolvent_two_term", "resolvent_small_r", "vprime_one_term",
        "vprime_two_term", "v1_one_term", "v1_two_term"]
    assert within_tol(fits["v1_one_term"]) and within_tol(fits["v1_two_term"])


def test_inverse_matrix_asymptotics_fits():
    fits = decay_fits(CFGC)[0]
    assert within_tol(fits["resolvent_one_term"])
    assert within_tol(fits["resolvent_two_term"])


def test_inverse_small_r_slope():
    rep = decay_fits(CFG3)[0]["resolvent_small_r"]
    assert (rep.name, rep.expected_slope) == ("resolvent minus A^{-1}", 3.0)
    assert within_tol(rep)


def test_vprime_asymptotics_fits():
    fits = decay_fits(CFG3)[0]
    assert within_tol(fits["vprime_one_term"])
    assert within_tol(fits["vprime_two_term"])


def test_decay_fits_stream_the_fit_radii_in_blocks(monkeypatch):
    # the 2,000 fit radii pass through sample_blocks, so the fits' working
    # set is a block's at any n; 20 blocks of 100 radii give the same bits
    whole = decay_fits(CFG3)
    sizes = []

    def counted(config, radii, **kwargs):
        for block in sample_blocks(config, radii, **kwargs):
            sizes.append(block[1].size)
            yield block

    monkeypatch.setattr(construct, "BLOCK_BYTES", 100 * 312)
    monkeypatch.setattr(construct, "sample_blocks", counted)
    fits, remainder = decay_fits(CFG3)
    assert sizes == [100] * 20
    assert np.array_equal(remainder, whole[1])
    assert fits == whole[0]


MU24 = np.linspace(5.0, 0.5, 24)
CONDITION_CONFIGS = {
    "n1": CFG1,
    "n1_complex": ModelConfig([1.0], [0.5 + 2.0j]),
    "n3": CFG3,
    "n3_complex": ModelConfig([3.0, 2.0, 1.0], [1.0, 1.0 - 0.5j, 2.0 + 1.0j]),
    "n24": ModelConfig(MU24, 1.0 + 0.1 * np.arange(24)),
    "n24_complex": ModelConfig(MU24, 1.0 + 0.1 * np.arange(24)
                               + 0.5j * np.cos(np.arange(24))),
}
CONDITION_RADII = np.array([0.0, 0.3, 1.0, 4.4, 17.0, 100.0, 400.0])


@pytest.mark.parametrize("cfg", CONDITION_CONFIGS.values(),
                         ids=CONDITION_CONFIGS)
def test_condition_estimate_is_the_exact_condition_number(cfg):
    mats = gram_matrix_stack(cfg, CONDITION_RADII) + np.diag(cfg.a)
    true = (np.abs(mats).sum(axis=1).max(axis=1)
            * np.abs(np.linalg.inv(mats)).sum(axis=1).max(axis=1))
    got = condition_estimate(cfg, CONDITION_RADII)
    assert np.allclose(got, true, rtol=1e-12, atol=0.0)
    if cfg.n == 1:  # |a + g| |1 / (a + g)|
        assert np.allclose(got, 1.0, rtol=1e-12, atol=0.0)
