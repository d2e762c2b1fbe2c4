"""The radial lift of v_j to R^d, measured on one whole-grid sample.

In R^d, u = r^{(1-d)/2} v_j leaves the residual
-u'' - ((d-1)/r) u' + (V - mu_j^2) u = -obstruction(d) r^{-2} u, so only
d = 1 and d = 3 (u_j = v_j/r) give eigenfunctions of -Delta + V(|x|).
At d = 1, whole_grid_residual is oracle.residual_eigen_equation, bit for
bit, from one sample_grid in place of its streamed blocks.
"""

import numpy as np

from ewlab.construct import sample_grid
from ewlab.kernel import GridSpec
from ewlab.oracle import fd_second_derivative


def obstruction(d: int) -> float:
    """Coefficient -(d-1)(d-3)/4 of the r^{-2} u term blocking the lift.

    Zero exactly when d is 1 or 3; the lift gives embedded eigenvalues only
    in those dimensions.
    """
    return -(d - 1.0) * (d - 3.0) / 4.0 + 0.0  # + 0.0 folds -0.0 at d = 3


def whole_grid_residual(cfg, grid, dims):
    """Sup FD residuals of the lift to each d of dims, and halving ratios.

    Returns (sup, ratio), each of shape (len(dims), n): entry (i, j) of sup
    is the sup over the interior nodes of grid of
    |-u'' - ((d-1)/r) u' + (V - mu_j^2) u|, u = r^{(1-d)/2} v_j with
    d = dims[i], 3-point u'' and central u'; ratio is sup(h)/sup(h/2). The
    grid must start at r > 0 unless every d is 1.
    """
    radii = GridSpec(grid.r_start, grid.r_end, grid.step / 2.0).radii()
    v_all, _, big_v_all, _ = sample_grid(cfg, radii)
    sups = np.empty((2, len(dims), cfg.n))
    for stride, out in zip((2, 1), sups):
        h = grid.step * stride / 2.0
        r, v, big_v = (radii[::stride, None], v_all[::stride],
                       big_v_all[::stride])
        for i, d in enumerate(dims):
            u = v if d == 1 else r ** ((1.0 - d) / 2.0) * v
            residual = -fd_second_derivative(u, h)
            if d != 1:
                first = (u[2:] - u[:-2]) / (2.0 * h)
                residual = residual - (d - 1.0) / r[1:-1] * first
            residual = residual + (big_v[1:-1, None] - cfg.mu**2) * u[1:-1]
            out[i] = np.max(np.abs(residual), axis=0)
    return sups[0], sups[0] / sups[1]
