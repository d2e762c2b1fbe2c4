"""Radial lift v_j/r in 3-d: decay, FD residual per dimension, obstruction."""

import numpy as np
import pytest

from ewlab.construct import sample_grid
from ewlab.kernel import GridError, GridSpec, ModelConfig
from ewlab.oracle import dimension_obstruction, residual_eigen_equation

CFG2 = ModelConfig([2.0, 1.0], [1.0, 1.0])


def test_lift_decays_quadratically():
    # |u_j| = |v_j|/r <= C / r^2 at large r; measured C = 1.99 for this config
    radii = GridSpec(10.0, 400.0, 0.05).radii()
    v1 = sample_grid(CFG2, radii).v[:, 0]
    assert np.max(np.abs(v1) * radii) <= 2.5


def test_residual_vanishes_in_dimension_three():
    grid = GridSpec(1.0, 30.0, 1e-3)
    res, halving = residual_eigen_equation(CFG2, grid, [3])
    assert res[0, 0] <= 1e-4
    assert 3.0 <= halving[0, 0] <= 5.0


def test_residual_vanishes_in_dimension_one():
    grid = GridSpec(1.0, 30.0, 1e-3)
    res, halving = residual_eigen_equation(CFG2, grid, [1])
    assert res[0, 1] <= 1e-4
    assert 3.0 <= halving[0, 1] <= 5.0


def test_residual_stabilizes_at_obstruction_size():
    # away from d in {1, 3} the residual converges to the obstructing term
    grid = GridSpec(1.0, 30.0, 1e-3)
    radii = grid.radii()
    interior = radii[1:-1]
    u3 = np.abs(sample_grid(CFG2, radii).v[1:-1, 0]) / interior
    dims = (2, 4, 5)
    res, halving = residual_eigen_equation(CFG2, grid, dims)
    assert res.shape == (3, 2)
    for d, r1, ratio in zip(dims, res[:, 0], halving[:, 0]):
        assert r1 > 0.05
        assert 0.9 <= ratio <= 1.1
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
        residual_eigen_equation(CFG2, GridSpec(1.0, 30.0, 1e-3), [3, 0])


def test_residual_grid_validation():
    with pytest.raises(GridError):
        residual_eigen_equation(CFG2, GridSpec(0.0, 30.0, 1e-3), [3])
    with pytest.raises(GridError):
        residual_eigen_equation(CFG2, GridSpec(1.0, 1.5, 0.1), [3])
