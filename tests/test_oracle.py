"""Independent checks: quadrature, FD residuals, shooting, decay fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlab import construct, oracle
from ewlab.construct import sample_grid
from ewlab.kernel import GridError, GridSpec, ModelConfig
from ewlab.oracle import (
    SLOPE_TOL,
    QuadratureError,
    StepTooLargeError,
    _rk4_trajectory,
    fd_second_derivative,
    fit_decay_slope,
    gram_derivative_defect,
    inverse_small_r_slope,
    large_r_fits,
    quadrature_gram,
    residual_eigen_equation,
    shooting_compare,
)

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


def test_grid_spec_basics():
    g = GridSpec(0.0, 1.0, 0.25)
    assert g.count == 5
    assert np.allclose(g.radii(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.halved().step == 0.125
    assert g.halved().count == 9


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
    (sup,), (ratio,) = residual_eigen_equation(CFG1, GridSpec(0.0, 20.0, 2e-3),
                                               (1,))
    assert sup.shape == ratio.shape == (1,)
    assert sup[0] <= 1e-3
    assert 3.0 <= ratio[0] <= 5.0


def test_residual_eigen_equation_all_indices():
    (sup,), (ratio,) = residual_eigen_equation(CFG3, GridSpec(0.0, 10.0, 2e-3),
                                               (1,))
    assert sup.shape == ratio.shape == (3,)
    assert np.all(sup <= 1e-2)
    assert np.all((3.0 <= ratio) & (ratio <= 5.0))


@pytest.mark.parametrize("grid", [
    GridSpec(0.0, 50.0, 1e-3), GridSpec(0.1, 30.0, 1e-3),
    GridSpec(0.0, 400.0, 0.05), GridSpec(0.3, 7.7, 0.037),
])
def test_halved_grid_holds_the_grid_bit_for_bit(grid):
    assert np.array_equal(grid.halved().radii()[::2], grid.radii())


@pytest.mark.parametrize("cfg", [CFG3, CFGC], ids=["n3_real", "n2_complex"])
def test_residual_stride_matches_separate_samples(cfg):
    grid = GridSpec(0.3, 10.3, 2e-3)

    def sup(g):
        ps = sample_grid(cfg, g.radii())
        second = fd_second_derivative(ps.v, g.step)
        residual = -second + (ps.V[1:-1, None] - cfg.mu**2) * ps.v[1:-1]
        return np.max(np.abs(residual), axis=0)

    (got,), (ratio,) = residual_eigen_equation(cfg, grid, (1,))
    want = sup(grid)
    assert np.array_equal(got, want)
    assert np.array_equal(ratio, want / sup(grid.halved()))


def test_residual_rows_match_separate_dimensions():
    grid = GridSpec(0.3, 10.3, 2e-3)
    sup, ratio = residual_eigen_equation(CFGC, grid, (1, 3))
    for i, d in enumerate((1, 3)):
        (one_sup,), (one_ratio,) = residual_eigen_equation(CFGC, grid, (d,))
        assert np.array_equal(sup[i], one_sup)
        assert np.array_equal(ratio[i], one_ratio)


def test_residual_lift_needs_a_grid_off_the_origin():
    grid = GridSpec(0.0, 10.0, 2e-3)
    sup, _ = residual_eigen_equation(CFG3, grid, (1,))
    assert np.all(np.isfinite(sup))
    with pytest.raises(GridError):
        residual_eigen_equation(CFG3, grid, (3,))
    with pytest.raises(GridError):
        residual_eigen_equation(CFG3, grid, (1, 3))


def test_residual_samples_once_for_every_dimension(monkeypatch):
    sampled = []

    def counted(config, radii):
        sampled.append(radii.size)
        return sample_grid(config, radii)

    monkeypatch.setattr(oracle, "sample_grid", counted)
    grid = GridSpec(1.0, 30.0, 1e-3)
    residual_eigen_equation(CFG3, grid, (3, 2, 4, 5))
    assert sampled == [grid.halved().count]


def test_residual_needs_enough_interior_points():
    with pytest.raises(GridError):
        residual_eigen_equation(CFG1, GridSpec(0.0, 1.0, 0.2), (1,))


def test_shooting_reproduces_eigenfunction():
    dev, ratio = shooting_compare(CFG1, GridSpec(0.1, 10.0, 1e-3))
    assert dev.shape == ratio.shape == (1,)
    assert dev[0] <= 1e-8
    assert 10.0 <= ratio[0] <= 24.0


def test_shooting_requires_positive_start():
    with pytest.raises(GridError):
        shooting_compare(CFG1, GridSpec(0.0, 10.0, 1e-3))


def test_shooting_rejects_unstable_step():
    with pytest.raises(StepTooLargeError):
        shooting_compare(CFG3, GridSpec(0.1, 10.1, 0.5))


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


# RK4 chunks of CHUNK steps (BLOCK_BYTES of 64 n bytes a step): a chunk of
# 10 runs as 3 blocks of 4 steps, the last padded with 2 identity steps
CHUNK = 10
EDGE_STEPS = (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 19, 20, 21, 30, 31)


def _assert_matches_reference(q, v0, p, h):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "BLOCK_BYTES", 64 * q.shape[1] * CHUNK)
        got = _rk4_trajectory(q, v0, p, h)
    for j in range(q.shape[1]):
        want = _rk4_reference(q[:, j], v0[j], p[j], h)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got[:, j] - want)) <= 1e-12 * scale


@pytest.mark.parametrize("steps", EDGE_STEPS)
def test_transfer_matrix_rk4_matches_the_loop_at_chunk_edges(steps):
    # the complex potential of CFGC at the half-step radii of [0.1, 0.1 + h K]
    h = 0.05
    radii = 0.1 + 0.5 * h * np.arange(2 * steps + 1)
    ps = sample_grid(CFGC, radii)
    q = ps.V[:, None] - CFGC.mu**2
    _assert_matches_reference(q, ps.v[0], ps.v_prime[0], h)


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


@pytest.mark.parametrize("steps", [1, 4, 37])
def test_real_rk4_is_the_real_part_of_its_complex_cast(steps):
    # real couplings give a real q: the trajectory runs in float64 with the
    # bits of the complex one
    rng = np.random.default_rng(steps)
    q = -10.0 + 20.0 * rng.standard_normal((2 * steps + 1, 3))
    v0, p = rng.standard_normal((2, 3))
    real = _rk4_trajectory(q, v0, p, 0.01)
    cplx = _rk4_trajectory(q.astype(complex), v0, p, 0.01)
    assert real.dtype == float and cplx.dtype == complex
    assert real.tobytes() == cplx.real.tobytes()
    assert not np.any(cplx.imag)


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
    one, two = large_r_fits(CFG3)[0]["potential"]
    assert (one.name, two.name) == ("V minus leading term",
                                    "V minus two terms")
    assert one.expected_slope == -2.0 and within_tol(one)
    assert two.expected_slope == -3.0 and within_tol(two)
    assert one.points >= 5 and two.points >= 5


def test_eigenfunction_asymptotics_fits():
    fits = large_r_fits(CFG1)[0]
    assert list(fits) == ["potential", "resolvent", "vprime", "v1"]
    one, two = fits["v1"]
    assert within_tol(one) and within_tol(two)


def test_inverse_matrix_asymptotics_fits():
    one, two = large_r_fits(CFGC)[0]["resolvent"]
    assert within_tol(one) and within_tol(two)


def test_inverse_small_r_slope():
    rep = inverse_small_r_slope(CFG3)
    assert rep.expected_slope == 3.0
    assert within_tol(rep)


def test_vprime_asymptotics_fits():
    one, two = large_r_fits(CFG3)[0]["vprime"]
    assert within_tol(one) and within_tol(two)
