"""Lift v_j/r to a radial 3-d eigenfunction; obstruction in other dimensions."""

import numpy as np
import pytest

from ewlab.kernel import GridError, GridSpec, ModelConfig
from ewlab.radial3d import (
    dimension_obstruction,
    lift_to_3d,
    radial_laplacian_residual,
)

CFG2 = ModelConfig.from_values([2.0, 1.0], [1.0, 1.0])
CFGC = ModelConfig.from_values([2.0, 1.0], [1.0 + 1.0j, 2.0])


def test_lift_origin_value():
    lift = lift_to_3d(CFG2, 0, GridSpec(0.0, 1.0, 0.1))
    assert lift.values[0] == -2.0
    assert lift.origin_value == -2.0
    lift = lift_to_3d(CFGC, 0, GridSpec(0.0, 1.0, 0.1))
    assert lift.origin_value == pytest.approx(-2.0 / (1.0 + 1.0j), abs=1e-16)


def test_lift_times_r_recovers_input():
    from ewlab.construct import sample_grid

    grid = GridSpec(0.5, 20.0, 0.1)
    lift = lift_to_3d(CFG2, 1, grid)
    vj = sample_grid(CFG2, grid.radii()).v[:, 1]
    # one divide and one multiply: at most 2 ulp of relative round-off
    err = np.abs(lift.values * grid.radii() - vj)
    assert np.all(err <= 2.0 * np.finfo(float).eps * np.abs(vj))


def test_lift_decays_quadratically():
    # |u_j| <= C / r^2 at large r; measured C = 1.99 for this config
    lift = lift_to_3d(CFG2, 0, GridSpec(10.0, 400.0, 0.05))
    assert np.max(np.abs(lift.values) * lift.radii**2) <= 2.5


def test_residual_vanishes_in_dimension_three():
    grid = GridSpec(1.0, 30.0, 1e-3)
    r1 = radial_laplacian_residual(CFG2, 0, grid, 3)
    r2 = radial_laplacian_residual(CFG2, 0, grid.halved(), 3)
    assert r1 <= 1e-4
    assert 3.0 <= r1 / r2 <= 5.0


def test_residual_vanishes_in_dimension_one():
    grid = GridSpec(1.0, 30.0, 1e-3)
    r1 = radial_laplacian_residual(CFG2, 1, grid, 1)
    r2 = radial_laplacian_residual(CFG2, 1, grid.halved(), 1)
    assert r1 <= 1e-4
    assert 3.0 <= r1 / r2 <= 5.0


def test_residual_stabilizes_at_obstruction_size():
    # away from d in {1, 3} the residual converges to the obstructing term
    grid = GridSpec(1.0, 30.0, 1e-3)
    lift = lift_to_3d(CFG2, 0, grid)
    interior = lift.radii[1:-1]
    u3 = np.abs(lift.values[1:-1])
    for d in (2, 4, 5):
        r1 = radial_laplacian_residual(CFG2, 0, grid, d)
        r2 = radial_laplacian_residual(CFG2, 0, grid.halved(), d)
        assert r1 > 0.05
        assert 0.9 <= r1 / r2 <= 1.1
        # u_d = r^{(3-d)/2} u_3, so the obstructing term has a known sup
        pred = abs(dimension_obstruction(d)) * np.max(
            interior ** ((3 - d) / 2) * u3 / interior**2)
        assert abs(r1 - pred) <= 0.01 * pred


def test_obstruction_values():
    import math

    assert dimension_obstruction(1) == 0.0
    assert dimension_obstruction(3) == 0.0
    # positive zero in both cases, so reports never show -0.0
    assert math.copysign(1.0, dimension_obstruction(3)) == 1.0
    assert dimension_obstruction(2) == 0.25
    assert dimension_obstruction(4) == -0.75
    assert dimension_obstruction(5) == -2.0
    for d in range(1, 9):
        assert (dimension_obstruction(d) == 0.0) == (d in (1, 3))


def test_dimension_validation():
    with pytest.raises(ValueError):
        dimension_obstruction(0)
    with pytest.raises(ValueError):
        radial_laplacian_residual(CFG2, 0, GridSpec(1.0, 30.0, 1e-3), 0)


def test_residual_grid_validation():
    with pytest.raises(GridError):
        radial_laplacian_residual(CFG2, 0, GridSpec(0.0, 30.0, 1e-3), 3)
    with pytest.raises(GridError):
        radial_laplacian_residual(CFG2, 0, GridSpec(1.0, 1.5, 0.1), 3)
