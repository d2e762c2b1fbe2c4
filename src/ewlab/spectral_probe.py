"""Discretized Dirichlet probe for the embedded eigenvalues.

The half-line operator is truncated to [0, R] with hard Dirichlet walls and
discretized by the standard 3-point stencil on a uniform grid: interior
nodes r_1 .. r_{K-1} carry diag_k = 2/h^2 + V(r_k) and off-diagonals -1/h^2.
The matrix is complex symmetric (never Hermitian unless V is real), so
eigenvalue estimates use the bilinear, unconjugated Rayleigh quotient
txHx/txx, the stationary functional appropriate for that class.

Shifted inverse iteration at sigma = mu_j^2 then locates the discrete
eigenpair nearest each prescribed eigenvalue. Two error sources separate
cleanly: O(h^2) stencil truncation, and the domain-truncation error set by
the boundary leak |v_j(R)| ~ 2/R. Estimates should therefore approach
mu_j^2 as R grows at fixed small h, and be independent of the couplings A
(the eigenvalues persist while eigenvectors and V change).

Every reduction (norms, inner products, the Rayleigh quotient) is a numpy
ufunc sum, never a BLAS call: BLAS splits dot products across its threads,
which reorders the additions, so probe output would change in the last
digits with the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ewlab.construct import sample_grid
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
    "phase_align",
    "probe_embedded",
    "rayleigh_quotient",
]


class IsotropicVectorError(ArithmeticError):
    """txx ~ 0: the bilinear quotient is undefined; perturb and retry."""


class NoConvergenceError(RuntimeError):
    """Inverse iteration failed to reach the residual tolerance."""


@dataclass(frozen=True, eq=False)
class ProbeResult:
    """Converged inverse-iteration eigenpair near one prescribed shift."""

    j: int                    # 0-based eigen-index; -1 when not tied to one
    shift: float
    eigval_estimate: complex
    residual: float
    boundary_leak: float      # |v_j(R)|; nan when no reference eigenfunction
    iterations: int
    start_mode: str           # "sampled eigenfunction" or "seeded random"
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
    h = grid.step
    diag = 2.0 / h**2 + np.asarray(v_interior, dtype=complex)
    off = np.full(diag.size - 1, -1.0 / h**2, dtype=complex)
    return ComplexTridiagonal(sub=off, diag=diag, super=off.copy())


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


def rayleigh_quotient(t: ComplexTridiagonal, x: np.ndarray) -> complex:
    """Bilinear quotient txHx / txx (no conjugation)."""
    x = np.asarray(x, dtype=complex)
    txx = complex(np.sum(x * x))
    norm2 = float(np.sum(x.real**2 + x.imag**2))
    if norm2 == 0.0:
        raise ValueError("zero vector")
    if abs(txx) <= 1e-12 * norm2:
        raise IsotropicVectorError("txx vanishes relative to |x|^2")
    return complex(np.sum(x * t.matvec(x))) / txx


def phase_align(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate x by the unit scalar making <ref, x> real and nonnegative."""
    x = np.asarray(x, dtype=complex)
    c = complex(np.sum(np.conj(ref) * x))
    if c == 0.0:
        return x
    return x * (c.conjugate() / abs(c))


def aligned_correlation(x: np.ndarray, ref: np.ndarray) -> float:
    """|<ref, x>| / (|ref| |x|); insensitive to phase and scale."""
    x = np.asarray(x, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    denom = _norm(x) * _norm(ref)
    if denom == 0.0:
        raise ValueError("zero vector")
    return float(abs(np.sum(ref.conj() * x)) / denom)


def inverse_iteration(t: ComplexTridiagonal, shift: complex,
                      tol: float = 1e-10, max_iter: int = 50,
                      start: np.ndarray | None = None,
                      seed: int = 0) -> ProbeResult:
    """Eigenpair of the discretization nearest the shift.

    Iterates x <- normalize((H - shift I)^{-1} x); the eigenvalue estimate is
    the bilinear Rayleigh quotient, and convergence means the 2-norm residual
    |H x - lambda x| <= tol for the unit vector x. A shift landing exactly on
    a discrete eigenvalue surfaces as SingularMatrixError from the
    factorization; the shift is then nudged by a relative 1e-10 and retried.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    k = t.size
    if start is None:
        start = np.random.default_rng(seed).standard_normal(k).astype(complex)
        start_mode = "seeded random"
    else:
        start = np.asarray(start, dtype=complex)
        start_mode = "sampled eigenfunction"
    norm = _norm(start)
    if norm == 0.0:
        raise ValueError("zero start vector")
    x = start / norm

    lu = None
    for attempt in range(3):
        try:
            lu = TridiagonalLU(ComplexTridiagonal(
                sub=t.sub, diag=t.diag - shift, super=t.super))
            break
        except SingularMatrixError:
            shift = shift * (1.0 + 1e-10)
    if lu is None:
        raise NoConvergenceError("shifted matrix singular after nudging")

    for it in range(1, max_iter + 1):
        y = lu.solve(x)
        x = y / _norm(y)
        try:
            lam = rayleigh_quotient(t, x)
        except IsotropicVectorError:
            # quasi-isotropic iterate: perturb deterministically and continue
            x = x + 1e-8 * np.cos(np.arange(k))
            x /= _norm(x)
            continue
        residual = _norm(t.matvec(x) - lam * x)
        if residual <= tol:
            return ProbeResult(
                j=-1, shift=float(np.real(shift)), eigval_estimate=lam,
                residual=residual, boundary_leak=math.nan, iterations=it,
                start_mode=start_mode, vector=x, start_vector=start,
            )
    raise NoConvergenceError(
        f"no convergence to {tol} within {max_iter} iterations"
    )


def probe_embedded(config: ModelConfig, grid: GridSpec) -> list[ProbeResult]:
    """Run the probe at every prescribed eigenvalue mu_j^2.

    The grid is sampled once: V at the interior nodes builds the Hamiltonian,
    the sampled eigenfunctions v_j there are the start vectors, and
    boundary_leak records |v_j(R)|, the size of the domain-truncation error
    committed by the hard wall.
    """
    ps = sample_grid(config, grid.radii())
    t = build_hamiltonian(grid, ps.V[1:-1])
    results = []
    for j in range(config.n):
        raw = inverse_iteration(t, config.mu[j] ** 2, start=ps.v[1:-1, j])
        results.append(replace(
            raw, j=j, boundary_leak=float(abs(ps.v[-1, j])),
        ))
    return results
