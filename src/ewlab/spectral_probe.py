"""Discretized Dirichlet probe for the embedded eigenvalues.

The half-line operator is truncated to [0, R] with hard Dirichlet walls and
discretized by the standard 3-point stencil on a uniform grid: interior
nodes r_1 .. r_{K-1} carry diag_k = 2/h^2 + V(r_k) and off-diagonals -1/h^2.
The matrix is complex symmetric (never Hermitian unless V is real), so
eigenvalue estimates use the bilinear, unconjugated Rayleigh quotient
txHx/txx, the stationary functional appropriate for that class.

Shifted inverse iteration at sigma = mu_j^2 then locates the discrete
eigenpair nearest each prescribed eigenvalue. Two error sources add up:
O(h^2) stencil truncation and the domain truncation set by the boundary
leak |v_j(R)| ~ 2/R, the only one reported. Estimates should therefore
approach mu_j^2 as R grows at fixed small h, and be independent of the
couplings A (the eigenvalues persist while eigenvectors and V change), but
a box mode of the walls next to mu_j^2 can stall the iteration (mu =
(3.494888, 2.35544) on [0, 200]: NoConvergenceError).

Every reduction (norms, inner products, the Rayleigh quotient) is a numpy
ufunc sum, never a BLAS call: BLAS splits dot products across its threads,
which reorders the additions, so probe output would change in the last
digits with the BLAS thread count. Each iteration step applies H once: the
quotient and the residual share H x.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ewlab.construct import sample_blocks
from ewlab.kernel import GridError, GridSpec, ModelConfig
from ewlab.linalg import ComplexTridiagonal, SingularMatrixError, TridiagonalLU

__all__ = [
    "IsotropicVectorError",
    "NoConvergenceError",
    "ProbeResult",
    "aligned_correlation",
    "build_hamiltonian",
    "free_laplacian_eigenvalue",
    "inverse_iteration",
    "probe_embedded",
    "seeded_start",
]

_TOL = 1e-10      # residual bound of inverse_iteration
_MAX_ITER = 50    # its iterations before it gives up


class IsotropicVectorError(ArithmeticError):
    """txx ~ 0: the bilinear quotient is undefined; perturb and retry."""


class NoConvergenceError(RuntimeError):
    """Inverse iteration failed to reach the residual tolerance."""


@dataclass(frozen=True, eq=False)
class ProbeResult:
    """Converged inverse-iteration eigenpair near one shift."""

    shift: float
    eigval_estimate: complex
    residual: float
    iterations: int
    vector: np.ndarray
    start_vector: np.ndarray  # the iteration's start, before normalization


def build_hamiltonian(grid: GridSpec,
                      v_interior: np.ndarray) -> ComplexTridiagonal:
    """Discretize -d^2/dr^2 + V(r) with Dirichlet walls at 0 and r_end.

    v_interior holds V at the interior nodes r_1 .. r_{K-1} of the grid;
    zeros give the free Laplacian, whose spectrum is known exactly.
    """
    if grid.r_start != 0.0:
        raise GridError("probe grids start at r = 0")
    if grid.count < 3:
        raise GridError(f"a probe grid needs at least 1 interior node; this "
                        f"one has {grid.count - 2}")
    h = grid.step
    diag = 2.0 / h**2 + np.asarray(v_interior, dtype=complex)
    off = np.full(diag.size - 1, -1.0 / h**2, dtype=complex)
    return ComplexTridiagonal(sub=off, diag=diag, super=off)


def free_laplacian_eigenvalue(grid: GridSpec, k: int) -> float:
    """k-th Dirichlet eigenvalue (k >= 1) of the discrete free Laplacian.

    lambda_k = (2/h^2) (1 - cos(k pi h / R)); tends to (k pi / R)^2 as h -> 0.
    """
    h = grid.step
    length = grid.r_end - grid.r_start
    return (2.0 / h**2) * (1.0 - math.cos(k * math.pi * h / length))


def _norm(x: np.ndarray) -> float:
    """2-norm of a complex vector as a fixed-order ufunc sum."""
    return math.sqrt(float(np.sum(x.real**2 + x.imag**2)))


def _rayleigh_residual(t: ComplexTridiagonal,
                       x: np.ndarray) -> tuple[complex, float]:
    """Bilinear quotient lam = txHx / txx (no conjugation) of a complex x,
    and the 2-norm residual |H x - lam x|, from one H x.
    """
    txx = complex(np.sum(x * x))
    norm2 = float(np.sum(x.real**2 + x.imag**2))
    if norm2 == 0.0:
        raise ValueError("zero vector")
    if abs(txx) <= 1e-12 * norm2:
        raise IsotropicVectorError("txx vanishes relative to |x|^2")
    hx = t.matvec(x)
    lam = complex(np.sum(hx * x)) / txx
    return lam, _norm(np.subtract(hx, lam * x, out=hx))


def aligned_correlation(x: np.ndarray, ref: np.ndarray) -> float:
    """|<ref, x>| / (|ref| |x|); insensitive to phase and scale."""
    x = np.asarray(x, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    denom = _norm(x) * _norm(ref)
    if denom == 0.0:
        raise ValueError("zero vector")
    return float(abs(np.sum(ref.conj() * x)) / denom)


def seeded_start(k: int, seed: int) -> np.ndarray:
    """K seeded complex values with zero imaginary part, each uniform in
    [-1, 1): K little-endian 64-bit words of random.Random(seed).randbytes,
    whose top 53 bits give the doubles."""
    rng = random.Random(seed)  # 2^19 bytes a draw: one draw's bytes
    words = b"".join(rng.randbytes(min(1 << 19, 8 * k - i))
                     for i in range(0, 8 * k, 1 << 19))
    start = (np.frombuffer(words, "<u8") >> 11).astype(complex)
    start *= 2.0**-52  # in place: one complex array at a time
    start -= 1.0
    return start


def inverse_iteration(t: ComplexTridiagonal, shift: complex,
                      start: np.ndarray) -> ProbeResult:
    """Eigenpair of the discretization nearest the shift.

    Iterates x <- normalize((H - shift I)^{-1} x); the eigenvalue estimate is
    the bilinear Rayleigh quotient, and convergence means the 2-norm residual
    |H x - lambda x| <= _TOL for the unit vector x; both come from one H x
    per step. A shift landing exactly on a discrete eigenvalue surfaces as
    SingularMatrixError from the factorization; the shift is then nudged by
    a relative 1e-10 and retried. The iteration starts from `start`, which
    the result keeps as its start_vector.
    """
    k = t.size
    start = np.asarray(start, dtype=complex)
    norm = _norm(start)
    if norm == 0.0:
        raise ValueError("zero start vector")
    x = start / norm

    for _ in range(3):
        try:
            lu = TridiagonalLU(ComplexTridiagonal(
                sub=t.sub, diag=t.diag - shift, super=t.super))
            break
        except SingularMatrixError:
            shift = shift * (1.0 + 1e-10)
    else:
        raise NoConvergenceError("shifted matrix singular after nudging")

    for it in range(1, _MAX_ITER + 1):
        y = lu.solve(x)
        x = y / _norm(y)
        try:
            lam, residual = _rayleigh_residual(t, x)
        except IsotropicVectorError:
            # quasi-isotropic iterate: perturb deterministically and continue
            x = x + 1e-8 * np.cos(np.arange(k))
            x /= _norm(x)
            continue
        if residual <= _TOL:
            return ProbeResult(
                shift=float(np.real(shift)), eigval_estimate=lam,
                residual=residual, iterations=it, vector=x,
                start_vector=start,
            )
    raise NoConvergenceError(
        f"no convergence to {_TOL} within {_MAX_ITER} iterations"
    )


def probe_embedded(config: ModelConfig,
                   grid: GridSpec) -> list[tuple[ProbeResult, float]]:
    """Run the probe at every prescribed eigenvalue mu_j^2, in order of j.

    The grid's v and V are sampled once, block by block: V at the interior
    nodes builds the Hamiltonian and v_j there are the start vectors. Each
    result comes with its boundary leak |v_j(R)|, the size of the
    domain-truncation error committed by the hard wall. A failure names the
    eigenvalue it was at.
    """
    v, big_v = map(np.concatenate, zip(*[(v, big_v) for _, _, v, _, big_v, _
                                         in sample_blocks(config, grid,
                                                          with_w=False)]))
    t = build_hamiltonian(grid, big_v[1:-1])
    del big_v
    results = []
    for j in range(config.n):
        shift = config.mu[j] ** 2
        try:
            res = inverse_iteration(t, shift, start=v[1:-1, j])
        except NoConvergenceError as exc:
            raise NoConvergenceError(
                f"probe at mu_{j + 1}^2 = {float(shift)!r}: {exc}") from exc
        results.append((res, float(abs(v[-1, j]))))
    return results
