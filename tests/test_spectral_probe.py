"""Discretized half-line Hamiltonian and the shift-invert eigenvalue probe."""

import numpy as np
import pytest

from ewlab.kernel import GridError, GridSpec, ModelConfig
from ewlab.construct import sample_grid
from ewlab.linalg import ComplexTridiagonal
from ewlab.spectral_probe import (
    IsotropicVectorError,
    NoConvergenceError,
    aligned_correlation,
    build_hamiltonian,
    free_laplacian_eigenvalue,
    inverse_iteration,
    phase_align,
    probe_embedded,
    rayleigh_quotient,
)

CFG2 = ModelConfig([2.0, 1.0], [1.0, 1.0])
GRID = GridSpec(0.0, 40.0, 0.01)


def free_laplacian(grid):
    return build_hamiltonian(grid, np.zeros(grid.count - 2))


def test_build_hamiltonian_structure():
    t = build_hamiltonian(GRID, sample_grid(CFG2, GRID.radii()[1:-1]).V)
    inv_h2 = 1.0 / GRID.step**2
    assert np.all(t.sub == t.super)
    assert np.all(t.sub == -inv_h2)
    assert t.size == GRID.count - 2


def test_diagonal_carries_the_potential():
    grid = GridSpec(0.0, 2.0, 0.1)
    t = build_hamiltonian(grid, sample_grid(CFG2, grid.radii()[1:-1]).V)
    inv_h2 = 1.0 / grid.step**2
    big_v = sample_grid(CFG2, grid.radii()[1:-1]).V
    for k in range(t.size):
        want = 2.0 * inv_h2 + big_v[k]
        assert abs(t.diag[k] - want) <= 1e-13 * inv_h2


def test_build_hamiltonian_needs_origin():
    with pytest.raises(GridError):
        build_hamiltonian(GridSpec(0.1, 40.0, 0.01), np.zeros(3989))


def test_free_spectrum_matches_dense_reference():
    grid = GridSpec(0.0, 5.0, 0.1)
    dense = free_laplacian(grid).dense().real
    eigs = np.sort(np.linalg.eigvalsh(dense))
    for k in (1, 2, 3, 10):
        assert abs(free_laplacian_eigenvalue(grid, k) - eigs[k - 1]) <= 1e-10


def test_rayleigh_quotient_on_eigenvector():
    t = ComplexTridiagonal(np.full(2, -1.0), np.full(3, 2.0), np.full(2, -1.0))
    x = np.array([1.0, np.sqrt(2.0), 1.0], dtype=complex)  # eigenvalue 2-sqrt(2)
    lam = rayleigh_quotient(t, x)
    assert abs(lam - (2.0 - np.sqrt(2.0))) <= 1e-14
    # bilinear form: invariant under complex scaling, not just unitary
    assert abs(rayleigh_quotient(t, (0.3 - 2.1j) * x) - lam) <= 1e-13


def test_rayleigh_quotient_rejects_isotropic_vector():
    t = ComplexTridiagonal(np.zeros(1), np.ones(2), np.zeros(1))
    with pytest.raises(IsotropicVectorError):
        rayleigh_quotient(t, np.array([1.0, 1.0j]))


def test_phase_align_and_correlation():
    rng = np.random.default_rng(41)
    ref = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    x = np.exp(0.7j) * ref
    aligned = phase_align(x, ref)
    assert np.max(np.abs(aligned - ref)) <= 1e-12
    assert aligned_correlation(x, ref) == pytest.approx(1.0, abs=1e-12)
    # orthogonal vectors score zero
    e1 = np.zeros(4, dtype=complex)
    e2 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    e2[1] = 1.0
    assert aligned_correlation(e1, e2) == 0.0


def test_inverse_iteration_free_ground_state():
    grid = GridSpec(0.0, 10.0, 0.01)
    lam1 = free_laplacian_eigenvalue(grid, 1)
    res = inverse_iteration(free_laplacian(grid), lam1 * 1.001)
    assert abs(res.eigval_estimate - lam1) <= 1e-10
    assert res.residual <= 1e-10
    assert res.start_mode == "seeded random"
    # the converged mode is one arch of a sine
    want = np.sin(np.pi * grid.radii()[1:-1] / 10.0)
    assert aligned_correlation(res.vector, want.astype(complex)) >= 1.0 - 1e-8


def test_inverse_iteration_is_deterministic():
    grid = GridSpec(0.0, 10.0, 0.01)
    t = free_laplacian(grid)
    shift = free_laplacian_eigenvalue(grid, 2) * 1.001
    a = inverse_iteration(t, shift, seed=7)
    b = inverse_iteration(t, shift, seed=7)
    assert a.eigval_estimate == b.eigval_estimate
    assert np.array_equal(a.vector, b.vector)


def test_inverse_iteration_retries_exactly_singular_shift():
    # diagonal operator: shift == eigenvalue gives an exactly singular solve
    t = ComplexTridiagonal(np.zeros(2), np.array([1.0, 2.0, 3.0]), np.zeros(2))
    res = inverse_iteration(t, 2.0)
    assert abs(res.eigval_estimate - 2.0) <= 1e-12
    assert res.shift != 2.0  # nudged before factoring succeeded


def test_inverse_iteration_reports_no_convergence():
    grid = GridSpec(0.0, 10.0, 0.1)
    with pytest.raises(NoConvergenceError):
        inverse_iteration(free_laplacian(grid),
                          free_laplacian_eigenvalue(grid, 1), tol=1e-30,
                          max_iter=5)


def test_probe_embedded_two_frequencies():
    results = probe_embedded(CFG2, GridSpec(0.0, 200.0, 0.01))
    assert [res.j for res in results] == [0, 1]
    for res, mu in zip(results, (2.0, 1.0)):
        assert res.start_mode == "sampled eigenfunction"
        assert res.residual <= 1e-10
        assert abs(res.eigval_estimate - mu**2) <= 1e-3
        assert np.isfinite(res.boundary_leak)
    # distinct embedded modes converge to near-orthogonal vectors
    cross = aligned_correlation(results[0].vector, results[1].vector)
    assert cross <= 0.1


def test_probe_estimates_real_for_real_couplings():
    results = probe_embedded(CFG2, GridSpec(0.0, 120.0, 0.01))
    for res in results:
        assert abs(res.eigval_estimate.imag) <= 1e-10


def test_probe_error_shrinks_with_domain():
    short = probe_embedded(CFG2, GridSpec(0.0, 100.0, 0.01))
    long = probe_embedded(CFG2, GridSpec(0.0, 200.0, 0.01))
    for res_s, res_l, mu in zip(short, long, (2.0, 1.0)):
        err_s = abs(res_s.eigval_estimate - mu**2)
        err_l = abs(res_l.eigval_estimate - mu**2)
        assert err_l < err_s


def test_probe_estimate_insensitive_to_couplings():
    grid = GridSpec(0.0, 100.0, 0.01)
    base = probe_embedded(CFG2, grid)
    other = probe_embedded(ModelConfig([2.0, 1.0], [2.5, 0.7]), grid)
    for res_b, res_o in zip(base, other):
        assert abs(res_b.eigval_estimate - res_o.eigval_estimate) <= 5e-3
