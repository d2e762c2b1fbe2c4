"""The constructed objects: v(r), v'(r), V(r), W(r), and their expansions.

Given an admissible pair (mu, A) the eigenfunction vector is

    v(r) = -(A + G(r))^{-1} s(r),

and the potential is V(r) = 2 (sum_j sin(mu_j .) v_j(.))'(r). With these
definitions each component solves the Dirichlet problem

    (-d^2/dr^2 + V) v_j = mu_j^2 v_j,     v_j(0) = 0,

with |v_j(r)| <= C r/(1+r^2), so every mu_j^2 is an eigenvalue embedded in
the continuous spectrum [0, inf). Real couplings give a real V, computed in
float64; complex ones give a complex V with the same eigenvalues.

The derivative never goes through finite differences: since G' = s.ts and
s' = M c, differentiating the defining solve gives

    v' = (ts v) v - (A+G)^{-1} M c,

one extra right-hand side on the same factorization. V is then assembled
from (v, v') exactly, V = 2 sum_j (mu_j cos(mu_j r) v_j + sin(mu_j r) v_j').

Every function takes an array of K radii and factors the K systems
A + G(r_k) as stacks; a single radius is K = 1. `sample_blocks` cuts a
whole grid into blocks of about BLOCK_BYTES per (block, n, n) stack; `build`
formats each block as it comes, and `sample_grid` collects them.

Large-r behaviour, used by the asymptotic checks:

    V(r) = -(4/r) sum_j mu_j sin(2 mu_j r)
           + (8/r^2) (sum_j a_j mu_j sin(2 mu_j r) + W(r)) + O(r^-3),

with the A-independent real function
W = (sum_j sin^2(mu_j r))^2 + 2 sum_{ij} h_ij mu_i sin(mu_j r) cos(mu_i r).

A cross-check identity ties V to the determinant of the system matrix:
(log det(A+G))' = -ts v, hence V = -2 (log det(A+G))''. The log-det helpers
below evaluate difference quotients of that determinant in a branch-safe way
(ratios det(I+X) with X a small resolvent increment, principal logarithm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ewlab.kernel import (
    ModelConfig,
    gram_matrix_stack,
    h_matrix_stack,
    trig_c,
    trig_s,
)
from ewlab.linalg import DenseLU, SingularMatrixError, batched_solve

__all__ = [
    "BLOCK_BYTES",
    "InvertibilityError",
    "PotentialSample",
    "log_det_derivative",
    "log_det_second_difference",
    "potential_terms",
    "resolvent_apply",
    "sample_blocks",
    "sample_grid",
    "system_matrix",
]

# sample_blocks takes the radii in blocks whose (block, n, n) complex stack
# is about this size: 113 radii at n = 24, 7,281 at n = 3, 16,384 at n = 2.
BLOCK_BYTES = 1 << 20

# The step of log_det_derivative, and log_det_second_difference's h and h/2.
_LOG_DET_STEP = 1e-4
_LOG_DET_SECOND_STEPS = (1e-3, 5e-4)


class InvertibilityError(RuntimeError):
    """A+G(r) reported singular for admissible couplings.

    Cannot happen in exact arithmetic (the Gram quadratic form is positive
    and Re a_j >= 0 keeps the real part of <xi,(A+G)xi> away from zero), so
    an occurrence means an invariant was violated upstream.
    """


@dataclass(frozen=True, eq=False)
class PotentialSample:
    """Grid sample of the construction; arrays indexed (radius, eigenindex)."""

    radii: np.ndarray      # (K,)
    v: np.ndarray          # (K, n), real when every a_j is, else complex
    v_prime: np.ndarray    # (K, n), the dtype of v
    V: np.ndarray          # (K,), the dtype of v
    w: np.ndarray          # (K,) real


def _with_couplings(config: ModelConfig, radii: np.ndarray,
                    h: np.ndarray) -> np.ndarray:
    """A + G(r), float64 if every a_j is real, from H(r) of the same radii."""
    a = config.a.real if config.is_real else config.a
    mats = h.astype(a.dtype)
    idx = np.arange(config.n)
    mats[:, idx, idx] += 0.5 * radii[:, None]
    mats[:, idx, idx] += a
    return mats


def system_matrix(config: ModelConfig, radii: np.ndarray) -> np.ndarray:
    """A + G(r) for every radius, a (K, n, n) stack in the couplings' dtype."""
    radii = np.asarray(radii, dtype=float)
    return _with_couplings(config, radii, h_matrix_stack(config, radii))


def _singular(radii: np.ndarray, exc: SingularMatrixError):
    """The InvertibilityError that names the r of the system exc found."""
    r = float(radii[exc.entry])
    return InvertibilityError(
        f"A+G(r) numerically singular at r = {r!r} on the sampling grid")


def _factor(config: ModelConfig, radii: np.ndarray) -> DenseLU:
    try:
        return DenseLU(system_matrix(config, radii))
    except SingularMatrixError as exc:
        raise _singular(radii, exc) from exc


def resolvent_apply(config: ModelConfig, radii: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """(A + G(r_k))^{-1} b_k for right-hand sides b of shape (K, n, m)."""
    return _factor(config, radii).solve(b)


def _w(s: np.ndarray, mc: np.ndarray, h: np.ndarray) -> np.ndarray:
    """W = (ts s)^2 + 2 t(Mc) H s per radius, from stacked s, Mc and H."""
    if len(s) == 1:
        # einsum sums a lone n = 2 system in another order than a stack of
        # two or more; a doubled stack gives a radius the bits of any grid
        return _w(*(np.concatenate([x, x]) for x in (s, mc, h)))[:1]
    return np.sum(s * s, axis=1) ** 2 + 2.0 * np.einsum("ki,kij,kj->k", mc, h, s)


def potential_terms(config: ModelConfig, radii: np.ndarray,
                    w: np.ndarray) -> tuple:
    """(leading, second) large-r terms of V at radii r > 0, given W there.

    W is the one ingredient that needs H(r); a caller holding a sample of
    the same radii passes its w and builds no H stack of its own.
    """
    mu = config.mu
    sin2 = np.sin(np.outer(radii, 2.0 * mu))
    leading = -(4.0 / radii) * (sin2 @ mu)
    second = (8.0 / radii**2) * (sin2 @ (config.a * mu) + w)
    return leading, second


def _log_det_ratio(config: ModelConfig, base_lu: DenseLU, r_base: np.ndarray,
                   r_to: np.ndarray) -> np.ndarray:
    """log(det(A+G(r_to)) / det(A+G(r_base))) without evaluating either det.

    The ratio equals det(I + X) with X = (A+G(r_base))^{-1} (G(r_to)-G(r_base));
    for the small increments used here det(I+X) stays near 1, so the principal
    logarithm, taken in complex, is branch-safe where the raw log det is not.
    """
    dg = gram_matrix_stack(config, r_to) - gram_matrix_stack(config, r_base)
    x = base_lu.solve(dg)
    x[:, np.arange(config.n), np.arange(config.n)] += 1.0
    return np.log(DenseLU(x).det().astype(complex))


def log_det_derivative(config: ModelConfig, radii: np.ndarray) -> np.ndarray:
    """Central-difference estimate of (log det(A+G))'(r) at each radius.

    Contract: equals -ts(r) v(r) within O(h^2), h = 1e-4. Wraps the
    difference as a single determinant ratio between r-h and r+h.
    """
    h = _LOG_DET_STEP
    radii = np.asarray(radii, dtype=float)
    lu = _factor(config, radii - h)
    return _log_det_ratio(config, lu, radii - h, radii + h) / (2.0 * h)


def log_det_second_difference(config: ModelConfig,
                              radii: np.ndarray) -> np.ndarray:
    """Second differences of log det(A+G), shape (2, K), at h = 1e-3 and h/2.

    -2 times each row estimates V(r) within O(h^2). One factorization at r
    serves all four increments:
    (f(r+h) - 2f(r) + f(r-h))/h^2 = (log det(I+X_+) + log det(I+X_-))/h^2
    with X_pm = (A+G(r))^{-1} (G(r pm h) - G(r)).
    """
    radii = np.asarray(radii, dtype=float)
    lu = _factor(config, radii)
    return np.stack([(_log_det_ratio(config, lu, radii, radii + h)
                      + _log_det_ratio(config, lu, radii, radii - h)) / h**2
                     for h in _LOG_DET_SECOND_STEPS])


def _sample_block(config: ModelConfig, radii: np.ndarray) -> tuple:
    """(v, v', V, W) of one block of radii, as in sample_blocks."""
    s = trig_s(config, radii)
    mc = trig_c(config, radii) * config.mu
    h = h_matrix_stack(config, radii)
    w = _w(s, mc, h)
    mats = _with_couplings(config, radii, h)
    rhs = np.stack([s, mc], axis=2).astype(mats.dtype)
    sol = batched_solve(mats, rhs)
    v = -sol[:, :, 0]
    sv = np.sum(s * v, axis=1)
    v_prime = sv[:, None] * v - sol[:, :, 1]
    big_v = 2.0 * (np.sum(mc * v, axis=1) + np.sum(s * v_prime, axis=1))
    return v, v_prime, big_v, w


def sample_blocks(config: ModelConfig, radii: np.ndarray):
    """Yield (block, v, v', V, W) per slice `block` of the radii, in order.

    Each block's (block, n, n) stack is about BLOCK_BYTES (half if real); its
    H(r) gives W, then becomes A + G(r), solved for s and M c by one LU sweep.
    A radius gives the same bits in any grid, whatever block it falls in.
    """
    radii = np.asarray(radii, dtype=float)
    step = max(1, BLOCK_BYTES // (16 * config.n ** 2))
    for start in range(0, radii.size, step):
        block = slice(start, start + step)
        try:
            # the stacks die with _sample_block, before the consumer runs
            yield (block, *_sample_block(config, radii[block]))
        except SingularMatrixError as exc:
            raise _singular(radii[block], exc) from exc


def sample_grid(config: ModelConfig, radii: np.ndarray) -> PotentialSample:
    """Sample (v, v', V, W) over a radius array into preallocated arrays."""
    radii = np.asarray(radii, dtype=float)
    count, n = radii.size, config.n
    v = np.empty((count, n), dtype=float if config.is_real else complex)
    v_prime = np.empty_like(v)
    big_v = np.empty(count, dtype=v.dtype)
    w = np.empty(count)
    for block, *values in sample_blocks(config, radii):
        v[block], v_prime[block], big_v[block], w[block] = values
        del values  # not held while the next block is solved
    return PotentialSample(radii=radii, v=v, v_prime=v_prime, V=big_v, w=w)
