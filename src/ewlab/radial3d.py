"""Spherically symmetric lift of the half-line eigenfunctions.

In R^3 the functions u_j(x) = v_j(|x|)/|x| are genuine L^2 eigenfunctions
of -Delta + V(|x|) with the same embedded eigenvalues mu_j^2: for radial
functions -Delta u = -u'' - ((d-1)/r) u' with d = 3, and the substitution
u = v/r turns that into the half-line equation for v, with v(0) = 0 making
the origin a removable singularity (u_j(0) = -mu_j/a_j).

Dimension 3 is not an accident. Writing u = r^{(1-d)/2} v in dimension d
leaves the residual

    -u'' - ((d-1)/r) u' + (V - mu_j^2) u = ((d-1)(d-3)/4) r^{-2} u,

so the lift satisfies the eigen-equation iff (d-1)(d-3) = 0: only d = 1
(the half-line itself) and d = 3 survive. dimension_obstruction returns
the coefficient -(d-1)(d-3)/4 of the obstructing r^{-2} u term, and
radial_laplacian_residual measures the residual numerically: it vanishes
at FD truncation order O(h^2) for d = 3 and stabilizes at a positive value
under refinement for every other d > 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ewlab.construct import sample_grid
from ewlab.kernel import GridError, GridSpec, ModelConfig
from ewlab.oracle import fd_second_derivative

__all__ = [
    "RadialLift",
    "dimension_obstruction",
    "lift_to_3d",
    "radial_laplacian_residual",
]


@dataclass(frozen=True, eq=False)
class RadialLift:
    """u_j(r) = v_j(r)/r on a grid; the origin carries the limit value."""

    j: int
    radii: np.ndarray
    values: np.ndarray
    origin_value: complex     # lim_{r->0} v_j(r)/r = -mu_j/a_j


def lift_to_3d(config: ModelConfig, j: int, grid: GridSpec) -> RadialLift:
    """Sample u_j = v_j/r; a grid touching r = 0 gets the limit value there."""
    radii = grid.radii()
    vj = sample_grid(config, radii).v[:, j]
    origin = complex(-config.mu[j] / config.a[j])
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(radii > 0.0, vj / np.where(radii > 0.0, radii, 1.0),
                          origin)
    return RadialLift(j=j, radii=radii, values=values, origin_value=origin)


def radial_laplacian_residual(config: ModelConfig, grid: GridSpec,
                              dims: Sequence[int]) -> np.ndarray:
    """Sup FD residuals of the radial eigen-equations, shape (len(dims), n).

    Entry (i, j) lifts v_j to u = r^{(1-d)/2} v_j with d = dims[i] and is the
    sup over interior nodes of |-u'' - ((d-1)/r) u' + (V - mu_j^2) u| with
    3-point u'' and central u'; the grid is sampled once for every d and j.
    For d = 3 (and d = 1) this is pure truncation error; otherwise it
    approaches the obstructing term |(d-1)(d-3)/4| r^{-2} |u| as h -> 0.
    """
    if any(d < 1 for d in dims):
        raise ValueError("dimension must be >= 1")
    if grid.r_start <= 0.0:
        raise GridError("residual grid must start at r > 0")
    radii = grid.radii()
    if radii.size - 2 < 8:
        raise GridError("fewer than 8 interior points")
    ps = sample_grid(config, radii)
    h = grid.step
    inner_r = radii[1:-1, None]
    out = np.empty((len(dims), config.n))
    for i, d in enumerate(dims):
        u = radii[:, None] ** ((1.0 - d) / 2.0) * ps.v
        second = fd_second_derivative(u, h)
        first = (u[2:] - u[:-2]) / (2.0 * h)
        residual = (-second - (d - 1.0) / inner_r * first
                    + (ps.V[1:-1, None] - config.mu ** 2) * u[1:-1])
        out[i] = np.max(np.abs(residual), axis=0)
    return out


def dimension_obstruction(d: int) -> float:
    """Coefficient -(d-1)(d-3)/4 of the r^{-2} u term blocking the lift.

    Zero exactly when d is 1 or 3; the lift gives embedded eigenvalues only
    in those dimensions.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return -(d - 1.0) * (d - 3.0) / 4.0 + 0.0  # + 0.0 folds -0.0 at d = 3
