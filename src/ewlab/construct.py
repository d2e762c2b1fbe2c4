"""The constructed objects: v(r), v'(r), V(r), W(r), and their expansions.

Given an admissible pair (mu, A) the eigenfunction vector is

    v(r) = -(A + G(r))^{-1} s(r),

and the potential is V(r) = 2 (sum_j sin(mu_j .) v_j(.))'(r). With these
definitions each component solves the Dirichlet problem

    (-d^2/dr^2 + V) v_j = mu_j^2 v_j,     v_j(0) = 0,

with |v_j(r)| <= C r/(1+r^2), so every mu_j^2 is an eigenvalue embedded in
the continuous spectrum [0, inf). Real couplings give a real V; couplings
with an imaginary part give a complex V with the same eigenvalues.

The derivative never goes through finite differences: since G' = s.ts and
s' = M c, differentiating the defining solve gives

    v' = (ts v) v - (A+G)^{-1} M c,

one extra right-hand side on the same factorization. V is then assembled
from (v, v') exactly, V = 2 sum_j (mu_j cos(mu_j r) v_j + sin(mu_j r) v_j').

Every function takes an array of K radii and factors the K systems
A + G(r_k) as one stack; a single radius is K = 1.

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
    "AsymptoticTerms",
    "InvertibilityError",
    "PotentialSample",
    "eigenfunction_large_r",
    "log_det_derivative",
    "log_det_second_difference",
    "potential_asymptotics",
    "resolvent_apply",
    "sample_grid",
    "system_matrix",
]


class InvertibilityError(RuntimeError):
    """A+G(r) reported singular for admissible couplings.

    Cannot happen in exact arithmetic (the Gram quadratic form is positive
    and Re a_j >= 0 keeps the real part of <xi,(A+G)xi> away from zero), so
    an occurrence means an invariant was violated upstream.
    """


@dataclass(frozen=True, eq=False)
class AsymptoticTerms:
    """First two large-r terms of V per radius; leading is A-independent, real."""

    leading: np.ndarray    # (K,) real
    second: np.ndarray     # (K,) complex
    w_value: np.ndarray    # (K,) real


@dataclass(frozen=True, eq=False)
class PotentialSample:
    """Grid sample of the construction; arrays indexed (radius, eigenindex)."""

    radii: np.ndarray      # (K,)
    v: np.ndarray          # (K, n) complex
    v_prime: np.ndarray    # (K, n) complex
    V: np.ndarray          # (K,) complex
    w: np.ndarray          # (K,) real


def _with_couplings(config: ModelConfig, radii: np.ndarray,
                    h: np.ndarray) -> np.ndarray:
    """A + G(r) as a complex stack, from the stack H(r) of the same radii."""
    mats = h.astype(complex)
    idx = np.arange(config.n)
    mats[:, idx, idx] += 0.5 * radii[:, None]
    mats[:, idx, idx] += config.a
    return mats


def system_matrix(config: ModelConfig, radii: np.ndarray) -> np.ndarray:
    """A + G(r) for every radius, a (K, n, n) complex stack."""
    radii = np.asarray(radii, dtype=float)
    return _with_couplings(config, radii, h_matrix_stack(config, radii))


def _factor(config: ModelConfig, radii: np.ndarray) -> DenseLU:
    try:
        return DenseLU(system_matrix(config, radii))
    except SingularMatrixError as exc:
        raise InvertibilityError(
            f"A+G(r) numerically singular ({exc}); couplings violate "
            "admissibility"
        ) from exc


def resolvent_apply(config: ModelConfig, radii: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """(A + G(r_k))^{-1} b_k for right-hand sides b of shape (K, n, m)."""
    return _factor(config, radii).solve(b)


def _w(s: np.ndarray, mc: np.ndarray, h: np.ndarray) -> np.ndarray:
    """W = (ts s)^2 + 2 t(Mc) H s per radius, from stacked s, Mc and H."""
    return np.sum(s * s, axis=1) ** 2 + 2.0 * np.einsum("ki,kij,kj->k", mc, h, s)


def _positive(radii) -> np.ndarray:
    radii = np.asarray(radii, dtype=float)
    if not np.all(radii > 0.0):
        raise ValueError("large-r expansions require r > 0")
    return radii


def potential_asymptotics(config: ModelConfig,
                          radii: np.ndarray) -> AsymptoticTerms:
    """Leading and second large-r terms of V, evaluated exactly at each r."""
    radii = _positive(radii)
    mu = config.mu
    sin2 = np.sin(np.outer(radii, 2.0 * mu))
    leading = -(4.0 / radii) * (sin2 @ mu)
    s = trig_s(config, radii)
    mc = trig_c(config, radii) * mu
    w = _w(s, mc, h_matrix_stack(config, radii))
    second = (8.0 / radii**2) * (sin2 @ (config.a * mu) + w)
    return AsymptoticTerms(leading=leading, second=second, w_value=w)


def eigenfunction_large_r(config: ModelConfig,
                          radii: np.ndarray) -> np.ndarray:
    """Two-term large-r expansion of v, shape (K, n); error is O(r^-3).

    v_j(r) ~ -(2/r) sin(mu_j r)
             + (4/r^2) (a_j sin(mu_j r) + sum_l h_jl(r) sin(mu_l r)).
    """
    radii = _positive(radii)
    s = trig_s(config, radii)
    hs = np.einsum("kjl,kl->kj", h_matrix_stack(config, radii), s)
    r = radii[:, None]
    return -(2.0 / r) * s + (4.0 / r**2) * (config.a * s + hs)


def _log_det_ratio(config: ModelConfig, base_lu: DenseLU, r_base: np.ndarray,
                   r_to: np.ndarray) -> np.ndarray:
    """log(det(A+G(r_to)) / det(A+G(r_base))) without evaluating either det.

    The ratio equals det(I + X) with X = (A+G(r_base))^{-1} (G(r_to)-G(r_base));
    for the small increments used here det(I+X) stays near 1, so the principal
    logarithm is branch-safe where the raw log det is not.
    """
    dg = gram_matrix_stack(config, r_to) - gram_matrix_stack(config, r_base)
    x = base_lu.solve(dg)
    x[:, np.arange(config.n), np.arange(config.n)] += 1.0
    return np.log(DenseLU(x).det())


def log_det_derivative(config: ModelConfig, radii: np.ndarray,
                       h: float = 1e-4) -> np.ndarray:
    """Central-difference estimate of (log det(A+G))'(r) at each radius.

    Contract: equals -ts(r) v(r) within O(h^2). Wraps the difference as a
    single determinant ratio between r-h and r+h.
    """
    if not h > 0.0:
        raise ValueError("step must be positive")
    radii = np.asarray(radii, dtype=float)
    lu = _factor(config, radii - h)
    return _log_det_ratio(config, lu, radii - h, radii + h) / (2.0 * h)


def log_det_second_difference(config: ModelConfig, radii: np.ndarray,
                              h: float = 1e-3) -> np.ndarray:
    """Second difference of log det(A+G) at each r; -2 times it estimates V(r).

    Both increments share the factorization at r:
    (f(r+h) - 2f(r) + f(r-h))/h^2 = (log det(I+X_+) + log det(I+X_-))/h^2
    with X_pm = (A+G(r))^{-1} (G(r pm h) - G(r)).
    """
    if not h > 0.0:
        raise ValueError("step must be positive")
    radii = np.asarray(radii, dtype=float)
    lu = _factor(config, radii)
    plus = _log_det_ratio(config, lu, radii, radii + h)
    minus = _log_det_ratio(config, lu, radii, radii - h)
    return (plus + minus) / h**2


def sample_grid(config: ModelConfig, radii: np.ndarray) -> PotentialSample:
    """Sample (v, v', V, W) over a radius array.

    H(r) is built once: W is read from it, then it becomes the stack of
    systems A + G(r_k), solved by one batched LU sweep for the two
    right-hand sides s and M c. Radii are processed in array order, and
    each radius's arithmetic is independent of the others, so output is
    deterministic and a radius gives the same bits in any grid.
    """
    radii = np.asarray(radii, dtype=float)
    s = trig_s(config, radii)
    mc = trig_c(config, radii) * config.mu
    h = h_matrix_stack(config, radii)
    w = _w(s, mc, h)
    mats = _with_couplings(config, radii, h)
    # drop H before the solve: at n = 24 it is 46 MB per 10^4 radii
    del h
    rhs = np.stack([s, mc], axis=2).astype(complex)
    try:
        sol = batched_solve(mats, rhs)
    except SingularMatrixError as exc:
        raise InvertibilityError(
            "A+G(r) numerically singular on the sampling grid"
        ) from exc
    v = -sol[:, :, 0]
    sv = np.sum(s * v, axis=1)
    v_prime = sv[:, None] * v - sol[:, :, 1]
    big_v = 2.0 * (np.sum(mc * v, axis=1) + np.sum(s * v_prime, axis=1))
    return PotentialSample(radii=radii, v=v, v_prime=v_prime, V=big_v, w=w)
