"""Independent checks: quadrature, FD residuals, shooting, decay fits."""

import math

import numpy as np
import pytest

from ewlab.kernel import GridError, GridSpec, ModelConfig
from ewlab.oracle import (
    MaxDepthExceededError,
    StepTooLargeError,
    _simpson_step,
    eigenfunction_asymptotics,
    fd_second_derivative,
    fit_decay_slope,
    gram_derivative_defect,
    inverse_matrix_asymptotics,
    inverse_small_r_slope,
    potential_expansion_fits,
    quadrature_gram,
    residual_eigen_equation,
    shooting_compare,
    vprime_asymptotics,
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
    assert abs(quadrature_gram(1.0, 1.0, r, 1e-12) - want) <= 1e-10


def test_quadrature_distinct_frequencies_near_eight_pi():
    r = 25.129990038890405
    want = math.sin(2 * r) / 4 - math.sin(4 * r) / 8
    assert abs(quadrature_gram(3.0, 1.0, r, 1e-12) - want) <= 1e-10


def test_quadrature_input_validation():
    with pytest.raises(ValueError):
        quadrature_gram(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        quadrature_gram(1.0, 1.0, 1.0, tol=1e-14)
    with pytest.raises(ValueError):
        quadrature_gram(0.0, 1.0, 1.0)


def test_simpson_gives_up_at_depth_cap():
    # integrable singularity at the left endpoint never passes the local test
    def f(x):
        return 1e30 if x == 0.0 else x**-0.5

    with pytest.raises(MaxDepthExceededError):
        _simpson_step(f, 0.0, f(0.0), 0.5, f(0.5), 1.0, f(1.0),
                      1e30, 1e-13, 0)


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
    d1 = gram_derivative_defect(CFG3, [2.7], 1e-4)
    d2 = gram_derivative_defect(CFG3, [2.7], 5e-5)
    assert d1 <= 1e-6
    assert 3.0 <= d1 / d2 <= 5.0
    with pytest.raises(ValueError):
        gram_derivative_defect(CFG3, [2.7], 0.0)


def test_residual_eigen_equation_converges():
    (rep,) = residual_eigen_equation(CFG1, GridSpec(0.0, 20.0, 2e-3))
    assert rep.j == 0
    assert rep.sup_residual <= 1e-3
    assert 3.0 <= rep.convergence_ratio <= 5.0


def test_residual_eigen_equation_all_indices():
    reports = residual_eigen_equation(CFG3, GridSpec(0.0, 10.0, 2e-3))
    assert [rep.j for rep in reports] == [0, 1, 2]
    for rep in reports:
        assert rep.sup_residual <= 1e-2
        assert 3.0 <= rep.convergence_ratio <= 5.0


def test_residual_needs_enough_interior_points():
    with pytest.raises(GridError):
        residual_eigen_equation(CFG1, GridSpec(0.0, 1.0, 0.2))


def test_shooting_reproduces_eigenfunction():
    dev = shooting_compare(CFG1, GridSpec(0.1, 10.0, 1e-3))
    assert dev.shape == (1,)
    assert dev[0] <= 1e-8


def test_shooting_requires_positive_start():
    with pytest.raises(GridError):
        shooting_compare(CFG1, GridSpec(0.0, 10.0, 1e-3))


def test_shooting_rejects_unstable_step():
    with pytest.raises(StepTooLargeError):
        shooting_compare(CFG3, GridSpec(0.1, 10.0, 0.5))


def test_fit_recovers_synthetic_power_law():
    rng = np.random.default_rng(31)
    radii = np.geomspace(50.0, 400.0, 300)
    defects = 3.7 * radii**-2.5 * (0.2 + np.abs(np.cos(radii)))
    rep = fit_decay_slope(radii, defects, -2.5, "synthetic")
    assert abs(rep.slope - -2.5) <= 0.15
    assert rep.ok
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
    one, two = potential_expansion_fits(CFG3)
    assert one.expected_slope == -2.0 and one.ok
    assert two.expected_slope == -3.0 and two.ok
    assert one.points >= 5 and two.points >= 5


def test_eigenfunction_asymptotics_fits():
    ((one, two),) = eigenfunction_asymptotics(CFG1)
    assert one.ok and two.ok


def test_inverse_matrix_asymptotics_fits():
    one, two = inverse_matrix_asymptotics(CFGC)
    assert one.ok and two.ok


def test_inverse_small_r_slope():
    rep = inverse_small_r_slope(CFG3)
    assert rep.expected_slope == 3.0
    assert rep.ok


def test_vprime_asymptotics_fits():
    one, two = vprime_asymptotics(CFG3)
    assert one.ok and two.ok
