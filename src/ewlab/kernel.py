"""Exact trigonometric kernels behind the potential construction.

For frequencies mu_1 > ... > mu_n > 0 the building blocks are the vectors

    s(r) = (sin(mu_j r))_j,    c(r) = (cos(mu_j r))_j,

and the Gram matrix G(r) of the sine family on [0, r],

    g_ij(r) = integral_0^r sin(mu_i rho) sin(mu_j rho) drho.

Every entry has a closed form: g_ij = h_ij off the diagonal and
g_ii = r/2 + h_ii, where

    h_ij(r) = sin((mu_i - mu_j) r) / (2 (mu_i - mu_j))
              - sin((mu_i + mu_j) r) / (2 (mu_i + mu_j))     (i != j)
    h_ii(r) = -sin(2 mu_i r) / (4 mu_i),

so H(r) is uniformly bounded in r while G(r) grows linearly on the diagonal.
The closed forms are used everywhere; quadrature exists only as an oracle in
the `oracle` module.

Every function takes an array of K radii and returns its results with the
radius first, (K, n) or (K, n, n); a single radius is K = 1. s, c, H and G
are stored radius-last, (n, K) and (n, n, K), and returned as transposed
views: `.T` or `.transpose(1, 2, 0)` gives a caller rows of K contiguous
values, so that each numpy operation on them is one loop over the radii.
`h_matrix_stack` builds H from s and c, and keeps the sines above only for
near-equal frequencies. `GridSpec` is the radius grid of every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "GridError",
    "GridSpec",
    "ModelConfig",
    "gram_matrix_stack",
    "h_bound",
    "h_matrix_stack",
    "trig_c",
    "trig_s",
]


class ConfigError(ValueError):
    """A model parameter violates its admissibility condition."""


class GridError(ValueError):
    """Grid specification violates its invariants or is too coarse."""


@dataclass(frozen=True, eq=False)
class ModelConfig:
    """The full input of the construction: frequencies mu and couplings a.

    mu is strictly decreasing and positive, 2 mu_1 finite (the eigenvalues are
    mu_j^2); a is the diagonal of the coupling matrix A, a_j != 0, Re a_j >= 0.
    """

    mu: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or mu.size == 0:
            raise ConfigError("mu must be a non-empty 1-d sequence")
        for j, value in enumerate(mu, start=1):
            if not np.isfinite(value):
                raise ConfigError(f"mu_{j} is not finite")
            if value <= 0.0:
                raise ConfigError(f"mu_{j} <= 0")
        for j in range(1, mu.size):
            if mu[j - 1] <= mu[j]:
                raise ConfigError(f"mu_{j} <= mu_{j + 1}")
        if not math.isfinite(2.0 * float(mu[0])):
            raise ConfigError("2 mu_1 is not finite: mu_i + mu_j overflows")
        a = np.atleast_1d(np.asarray(self.a, dtype=complex))
        object.__setattr__(self, "a", a)
        if a.ndim != 1 or a.size == 0:
            raise ConfigError("a must be a non-empty 1-d sequence")
        for j, value in enumerate(a, start=1):
            if not np.isfinite(value):
                raise ConfigError(f"a_{j} is not finite")
            if value == 0:
                raise ConfigError(f"a_{j} == 0")
            if value.real < 0.0:
                raise ConfigError(f"Re(a_{j}) < 0")
        if mu.size != a.size:
            raise ConfigError(f"len(mu) = {mu.size} but len(a) = {a.size}")

    @property
    def n(self) -> int:
        return self.mu.size

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.a.imag == 0.0))

    def check_radius(self, r: float) -> None:
        """ConfigError unless 2 mu_1 r, the largest sine argument, is finite."""
        mu_1, r = float(self.mu[0]), float(r)
        if not math.isfinite(2.0 * mu_1 * r):
            raise ConfigError(f"2 mu_1 r is not finite at {mu_1 = }, {r = }")


@dataclass(frozen=True)
class GridSpec:
    """Uniform radius grid [r_start, r_end] with the given step."""

    r_start: float
    r_end: float
    step: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_start) and math.isfinite(self.r_end)
                and math.isfinite(self.step)):
            raise GridError("grid parameters must be finite")
        if self.r_start < 0.0:
            raise GridError("r_start < 0")
        if self.step <= 0.0:
            raise GridError("step <= 0")
        if self.r_start >= self.r_end:
            raise GridError("r_start >= r_end")
        steps = (self.r_end - self.r_start) / self.step
        if steps > 1e7:
            raise GridError("more than 1e7 grid points")
        # count rounds steps, so a misaligned span would move r_end
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise GridError("r_end - r_start is not a whole number of steps")

    @property
    def count(self) -> int:
        return int(round((self.r_end - self.r_start) / self.step)) + 1

    def radii(self, block: slice = slice(None)) -> np.ndarray:
        """The radii of the grid indices in block, computing no others."""
        i = range(self.count)[block]
        return self.r_start + self.step * np.arange(i.start, i.stop, i.step)


def trig_s(config: ModelConfig, radii: np.ndarray) -> np.ndarray:
    """Sine vectors s(r), shape (K, n): entry (k, j) is sin(mu_j r_k)."""
    return np.sin(np.multiply.outer(config.mu, radii)).T


def trig_c(config: ModelConfig, radii: np.ndarray) -> np.ndarray:
    """Cosine vectors c(r), shape (K, n): entry (k, j) is cos(mu_j r_k)."""
    return np.cos(np.multiply.outer(config.mu, radii)).T


def h_bound(config: ModelConfig) -> np.ndarray:
    """Uniform-in-r bounds on |h_ij|, shape (n, n): triangle inequality."""
    mu = config.mu
    diff = np.abs(np.subtract.outer(mu, mu))
    with np.errstate(divide="ignore"):
        off = 1.0 / (2.0 * diff) + 1.0 / (2.0 * np.add.outer(mu, mu))
    return np.where(diff == 0.0, 1.0 / (4.0 * mu), off)


def h_matrix_stack(config: ModelConfig, radii: np.ndarray, s: np.ndarray,
                   c: np.ndarray) -> np.ndarray:
    """H(r) for every radius, shape (len(radii), n, n), from the trig_s and
    trig_c of the same radii: with d = mu_i - mu_j and t = mu_i + mu_j,

        h_ij = alpha_ij s_i c_j - beta_ij c_i s_j,  h_ii = -s_i c_i / (2 mu_i),

    alpha_ij = mu_j / d / t and beta_ij = mu_i / d / t. The products lose
    about 4 eps (1 + mu_i r) / d, the sines sin(d r) / (2 d) - sin(t r) / (2 t)
    about eps r, so a close pair, d < mu_i / 2^10, keeps its sines: the rule
    reads mu alone. Row i of the upper triangle is mirrored into column i.
    """
    mu = config.mu
    radii = np.asarray(radii, dtype=float)
    s, c = s.T, c.T  # radius-last rows
    h = np.empty((config.n, config.n, radii.size))
    for i in range(config.n - 1):
        m = i + 1 + int(np.sum(mu[i] - mu[i + 1:] < mu[i] / 1024))
        for j in range(i + 1, m):  # the close pairs: mu decreases
            d, t = mu[i] - mu[j], mu[i] + mu[j]
            h[i, j] = np.sin(d * radii) / (2 * d) - np.sin(t * radii) / (2 * t)
        d, t = mu[i] - mu[m:, None], mu[i] + mu[m:, None]
        row = np.multiply(s[i], c[m:], out=h[i, m:])
        row *= mu[m:, None] / d / t
        row -= mu[i] / d / t * (c[i] * s[m:])
        h[i + 1:, i] = h[i, i + 1:]
    np.divide(s * c, -2.0 * mu[:, None], out=np.einsum("iik->ik", h))
    return h.transpose(2, 0, 1)


def gram_matrix_stack(config: ModelConfig, radii: np.ndarray) -> np.ndarray:
    """G(r) for every radius at once, shape (len(radii), n, n)."""
    radii = np.asarray(radii, dtype=float)
    g = h_matrix_stack(config, radii, trig_s(config, radii),
                       trig_c(config, radii))
    diagonal = np.einsum("kii->ik", g)  # a writeable view
    diagonal += 0.5 * radii
    return g
