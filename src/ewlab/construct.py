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
A + G(r_k) as stacks, right-hand sides carried, in one solve that names the
r of a singular system; a single radius is K = 1. Inside `sample_grid`
every stack is radius-last, (n, K) or (n, n, K), so that each numpy
operation is one loop over the radii and each sum over j (`sum_rows`)
adds in order; v and v' are returned as (K, n) views. `sample_blocks` cuts a
grid into blocks sized by BLOCK_BYTES, with a floor of 512 radii while a
block's stacks stay within 4 BLOCK_BYTES, each one `sample_grid` call, for
`build`, `expand` and the decay fits (with W), the probe and verify's
residual, shooting and [0, 400] passes; only few-radius callers call
`sample_grid` directly.

Large-r behaviour, used by the asymptotic checks:

    V(r) = -(4/r) sum_j mu_j sin(2 mu_j r)
           + (8/r^2) (sum_j a_j mu_j sin(2 mu_j r) + W(r)) + O(r^-3),

with the A-independent real function
W = (sum_j sin^2(mu_j r))^2 + 2 sum_{ij} h_ij mu_i sin(mu_j r) cos(mu_i r).
"""

from __future__ import annotations

import numpy as np

from ewlab.kernel import (
    GridSpec,
    ModelConfig,
    gram_matrix_stack,
    h_matrix_stack,
    trig_c,
    trig_s,
)
from ewlab.linalg import SingularMatrixError, batched_solve, sum_rows

__all__ = [
    "BLOCK_BYTES",
    "InvertibilityError",
    "potential_terms",
    "resolvent_apply",
    "sample_blocks",
    "sample_grid",
]

# Blocks of sample_blocks: the real H/G stack and the complex elimination
# buffer [A + G | s, M c], 8 n (3 n + 4) bytes a radius, come to about this
# size up to n = 12: 6,721 radii at n = 3, 13,107 at n = 2. From n = 13 on
# that would leave the batched LU's numpy calls too few radii to loop over,
# so a block keeps BLOCK_BYTES // 4096 radii (512) while its stacks stay
# within four times this size: 512 radii at n = 24, 147 at n = 48, 37 at
# n = 96. A block's working set (tracemalloc peak of one sample_grid) is
# then under 10 MB at every n, 9.1 MB at n = 24 (complex a_j) and 2.9 MB
# at n = 3 (real a_j; 4.4 MB complex), with or without W, whose sums end
# before the elimination buffer exists.
BLOCK_BYTES = 1 << 21


class InvertibilityError(RuntimeError):
    """A+G(r) reported singular for admissible couplings.

    Cannot happen in exact arithmetic (the Gram quadratic form is positive
    and Re a_j >= 0 keeps the real part of <xi,(A+G)xi> away from zero), so
    an occurrence means an invariant was violated upstream.
    """


def _solve(config: ModelConfig, radii: np.ndarray, gram: np.ndarray,
           b: np.ndarray) -> np.ndarray:
    """(A + G(r_k))^{-1} b_k, from G(r_k); a singular system names its r."""
    a = config.a.real if config.is_real else config.a  # real: a float64 solve
    try:
        return batched_solve(gram, b, a)
    except SingularMatrixError as exc:
        r = float(radii[exc.entry])
        raise InvertibilityError(
            f"A+G(r) numerically singular at r = {r!r} on the sampling grid"
        ) from exc


def resolvent_apply(config: ModelConfig, radii: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """(A + G(r_k))^{-1} b_k for right-hand sides b of shape (K, n, m)."""
    return _solve(config, radii, gram_matrix_stack(config, radii), b)


def _w(s: np.ndarray, mc: np.ndarray, h: np.ndarray) -> np.ndarray:
    """W = (ts s)^2 + 2 t(Mc) H s per radius, from radius-last s, Mc and H."""
    hs = sum_rows(hj * sj for hj, sj in zip(h, s))  # H is symmetric
    return sum_rows(s * s) ** 2 + 2.0 * sum_rows(mc * hs)


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


def sample_grid(config: ModelConfig, radii, *, with_w: bool = True) -> tuple:
    """(v, v', V, W) at the radii as one block, bitwise as in any block.

    v, v' are (K, n) views of radius-last (n, K) arrays and V (K,), real
    when every a_j is, else complex; W is (K,) real, or None with
    with_w=False: only build, expand, the decay fits and the W check read
    it. H(r) gives W and becomes G(r); one elimination adds A and carries s
    and M c. sample_blocks bounds the working set of a long grid.
    """
    radii = np.asarray(radii, dtype=float)
    s = trig_s(config, radii).T  # radius-last rows from here on
    c = trig_c(config, radii).T
    mc = c * config.mu[:, None]
    # H for W, then G
    g = h_matrix_stack(config, radii, s.T, c.T).transpose(1, 2, 0)
    w = _w(s, mc, g) if with_w else None
    diagonal = np.einsum("iik->ik", g)  # a writeable view
    diagonal += 0.5 * radii
    rhs = np.stack([s, mc], axis=1)  # (n, 2, K)
    sol = _solve(config, radii, g.transpose(2, 0, 1), rhs.transpose(2, 0, 1))
    sol = sol.transpose(1, 2, 0)
    v = -sol[:, 0]
    v_prime = sum_rows(s * v) * v - sol[:, 1]
    big_v = 2.0 * (sum_rows(mc * v) + sum_rows(s * v_prime))
    return v.T, v_prime.T, big_v, w


def sample_blocks(config: ModelConfig, radii, *, with_w: bool = True):
    """Yield (block, r, v, v', V, W) per slice `block` of the radii, in order.

    radii is an array or a GridSpec, whose block radii r are computed alone,
    bitwise its radii()[block]. BLOCK_BYTES sets the block length: the
    radii whose stacks fill BLOCK_BYTES, but at least BLOCK_BYTES // 4096
    as long as the stacks fill at most 4 BLOCK_BYTES. Each block is one
    sample_grid call, with_w passed on.
    """
    grid = isinstance(radii, GridSpec)
    radii = radii if grid else np.asarray(radii, dtype=float)
    row = 8 * config.n * (3 * config.n + 4)
    step = max(1, min(max(BLOCK_BYTES // row, BLOCK_BYTES // 4096),
                      4 * BLOCK_BYTES // row))
    for start in range(0, radii.count if grid else radii.size, step):
        block = slice(start, start + step)
        r = radii.radii(block) if grid else radii[block]
        # the stacks die with sample_grid, before the consumer runs
        yield (block, r, *sample_grid(config, r, with_w=with_w))
