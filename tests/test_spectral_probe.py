"""Discretized half-line Hamiltonian and the shift-invert eigenvalue probe."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from ewlab.kernel import GridError, GridSpec, ModelConfig
from ewlab.construct import sample_grid
from ewlab.linalg import ComplexTridiagonal, TridiagonalLU
from ewlab.spectral_probe import (
    IsotropicVectorError,
    NoConvergenceError,
    _rayleigh_residual,
    aligned_correlation,
    build_hamiltonian,
    free_laplacian_eigenvalue,
    inverse_iteration,
    probe_embedded,
    seeded_start,
)

CFG2 = ModelConfig([2.0, 1.0], [1.0, 1.0])
GRID = GridSpec(0.0, 40.0, 0.01)


def free_laplacian(grid):
    return build_hamiltonian(grid, np.zeros(grid.count - 2))


def test_build_hamiltonian_structure():
    t = build_hamiltonian(GRID, sample_grid(CFG2, GRID.radii()[1:-1])[2])
    inv_h2 = 1.0 / GRID.step**2
    assert np.all(t.sub == t.super)
    assert np.all(t.sub == -inv_h2)
    assert t.size == GRID.count - 2


def test_diagonal_carries_the_potential():
    grid = GridSpec(0.0, 2.0, 0.1)
    t = build_hamiltonian(grid, sample_grid(CFG2, grid.radii()[1:-1])[2])
    inv_h2 = 1.0 / grid.step**2
    big_v = sample_grid(CFG2, grid.radii()[1:-1])[2]
    for k in range(t.size):
        want = 2.0 * inv_h2 + big_v[k]
        assert abs(t.diag[k] - want) <= 1e-13 * inv_h2


def test_build_hamiltonian_needs_origin():
    with pytest.raises(GridError):
        build_hamiltonian(GridSpec(0.1, 40.0, 0.01), np.zeros(3989))


def test_free_spectrum_matches_dense_reference():
    grid = GridSpec(0.0, 5.0, 0.1)
    t = free_laplacian(grid)
    dense = (np.diag(t.diag) + np.diag(t.sub, -1) + np.diag(t.super, 1)).real
    eigs = np.sort(np.linalg.eigvalsh(dense))
    for k in (1, 2, 3, 10):
        assert abs(free_laplacian_eigenvalue(grid, k) - eigs[k - 1]) <= 1e-10


def test_rayleigh_quotient_on_eigenvector():
    t = ComplexTridiagonal(np.full(2, -1.0), np.full(3, 2.0), np.full(2, -1.0))
    x = np.array([1.0, np.sqrt(2.0), 1.0], dtype=complex)  # eigenvalue 2-sqrt(2)
    lam, residual = _rayleigh_residual(t, x)
    assert abs(lam - (2.0 - np.sqrt(2.0))) <= 1e-14
    assert residual <= 1e-14
    # bilinear form: invariant under complex scaling, not just unitary
    assert abs(_rayleigh_residual(t, (0.3 - 2.1j) * x)[0] - lam) <= 1e-13
    # off an eigenvector the residual is |H x - lam x|
    y = np.array([1.0, 0.5j, -2.0])
    lam, residual = _rayleigh_residual(t, y)
    assert residual == pytest.approx(np.linalg.norm(t.matvec(y) - lam * y),
                                     rel=1e-14)


def test_rayleigh_quotient_rejects_isotropic_vector():
    t = ComplexTridiagonal(np.zeros(1), np.ones(2), np.zeros(1))
    with pytest.raises(IsotropicVectorError):
        _rayleigh_residual(t, np.array([1.0, 1.0j]))


def test_aligned_correlation():
    rng = np.random.default_rng(41)
    ref = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    x = np.exp(0.7j) * ref
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
    t = free_laplacian(grid)
    res = inverse_iteration(t, lam1 * 1.001, start=seeded_start(t.size, 0))
    assert abs(res.eigval_estimate - lam1) <= 1e-10
    assert res.residual <= 1e-10
    # the converged mode is one arch of a sine
    want = np.sin(np.pi * grid.radii()[1:-1] / 10.0)
    assert aligned_correlation(res.vector, want.astype(complex)) >= 1.0 - 1e-8


def test_inverse_iteration_is_deterministic():
    grid = GridSpec(0.0, 10.0, 0.01)
    t = free_laplacian(grid)
    shift = free_laplacian_eigenvalue(grid, 2) * 1.001
    a = inverse_iteration(t, shift, start=seeded_start(t.size, 7))
    b = inverse_iteration(t, shift, start=seeded_start(t.size, 7))
    assert a.eigval_estimate == b.eigval_estimate
    assert np.array_equal(a.vector, b.vector)


def test_seeded_start_is_one_draw_taken_in_chunks():
    # 2^16 + 3 words: drawn 2^19 bytes at a time, they are the words of one
    # randbytes call
    k = (1 << 16) + 3
    words = np.frombuffer(random.Random(5).randbytes(8 * k), "<u8")
    assert np.array_equal(seeded_start(k, 5), (words >> 11) * 2.0**-52 - 1.0)


def _inverse_iteration_reference(t, shift, start):
    """(estimate, residual, iterations, vector) of the loop inverse_iteration
    ran before its steps shared one H x: each step applied H twice, once in
    the quotient's product H x * x and once in the residual. The nudges and
    isotropic retries, never reached here, are left out."""
    def norm(x):
        return math.sqrt(float(np.sum(x.real**2 + x.imag**2)))

    x = start / norm(start)
    lu = TridiagonalLU(ComplexTridiagonal(t.sub, t.diag - shift, t.super))
    for it in range(1, 51):
        y = lu.solve(x)
        x = y / norm(y)
        lam = complex(np.sum(t.matvec(x) * x)) / complex(np.sum(x * x))
        residual = norm(t.matvec(x) - lam * x)
        if residual <= 1e-10:
            return lam, residual, it, x
    raise AssertionError("the reference did not converge")


@pytest.mark.parametrize("mu, a, end", [
    ((2.0, 1.0), (0.64 - 0.94j, 1.75 - 0.13j), 100.0),
    ((2.0, 1.0), (1.24 - 0.1j, 1.48 + 0.58j), 200.0),
    ((40.0, 1.0), (0.7 - 0.9j, 2.0 + 0.4j), 200.0)],
    ids=["9999-nodes", "19999-nodes", "high-frequency"])
def test_inverse_iteration_matches_the_two_matvec_loop(mu, a, end):
    # 9,999 and 19,999 interior nodes lie on both sides of the 16,384
    # entries from which numpy computes a product with a temporary in
    # place; at mu_1 = 40 the 49-row blocks pivot in some rows and not in
    # others. With these couplings a quotient of x * hx changes the bits
    # of every case.
    cfg = ModelConfig(list(mu), list(a))
    grid = GridSpec(0.0, end, 0.01)
    v, _, big_v, _ = sample_grid(cfg, grid.radii())
    t = build_hamiltonian(grid, big_v[1:-1])
    for j in range(cfg.n):
        shift = mu[j] ** 2
        start = v[1:-1, j].astype(complex)
        res = inverse_iteration(t, shift, start=start)
        lam, residual, iterations, vector = _inverse_iteration_reference(
            t, shift, start)
        # repr round-trips a float, so equal reprs are equal bits
        assert (repr((res.eigval_estimate, res.residual, res.iterations))
                == repr((lam, residual, iterations)))
        assert res.vector.tobytes() == vector.tobytes()
    if mu[0] == 40.0:
        shifted = ComplexTridiagonal(t.sub, t.diag - mu[0] ** 2, t.super)
        pivoted = TridiagonalLU(shifted)._root.lu.pivoted
        assert 0 < sum(pivoted) < len(pivoted)


def test_inverse_iteration_retries_exactly_singular_shift():
    # diagonal operator: shift == eigenvalue gives an exactly singular solve
    t = ComplexTridiagonal(np.zeros(2), np.array([1.0, 2.0, 3.0]), np.zeros(2))
    res = inverse_iteration(t, 2.0, start=np.ones(3))
    assert abs(res.eigval_estimate - 2.0) <= 1e-12
    assert res.shift == 2.0 * (1.0 + 1e-10)  # nudged once, then factored


def test_isotropic_iterate_is_perturbed_once_and_converges():
    # (T - 1.1 I)^-1 takes the start to a multiple of (1, i), whose txx
    # vanishes; the perturbed iterate then converges to the eigenvalue 1.
    # Real T keeps the second entry imaginary: only the perturbation, which
    # is real, gives it a real part.
    t = ComplexTridiagonal(np.zeros(1), np.array([1.0, 3.0]), np.zeros(1))
    lu = TridiagonalLU(ComplexTridiagonal(t.sub, t.diag - 1.1, t.super))
    first = lu.solve(np.array([-0.1, 1.9j]))
    with pytest.raises(IsotropicVectorError):
        _rayleigh_residual(t, first / np.linalg.norm(first))
    res = inverse_iteration(t, 1.1, start=np.array([-0.1, 1.9j]))
    assert res.iterations == 10
    assert res.vector[1].real != 0.0
    assert abs(res.eigval_estimate - 1.0) <= 1e-12
    assert res.residual <= 1e-10


def test_inverse_iteration_reports_no_convergence():
    # a box mode 0.006 from mu_1^2 on this grid stalls inverse iteration
    cfg = ModelConfig([3.494888, 2.35544], [1.0, 0.8])
    with pytest.raises(NoConvergenceError) as exc:
        probe_embedded(cfg, GridSpec(0.0, 200.0, 0.01))
    assert str(exc.value) == (f"probe at mu_1^2 = {3.494888 ** 2!r}: no "
                              "convergence to 1e-10 within 50 iterations")


def test_probe_embedded_two_frequencies():
    grid = GridSpec(0.0, 200.0, 0.01)
    results = probe_embedded(CFG2, grid)
    v = sample_grid(CFG2, grid.radii())[0]
    assert len(results) == 2
    for j, ((res, leak), mu) in enumerate(zip(results, (2.0, 1.0))):
        assert res.shift == mu**2
        assert np.array_equal(res.start_vector, v[1:-1, j])
        assert res.residual <= 1e-10
        assert abs(res.eigval_estimate - mu**2) <= 1e-3
        assert leak == abs(v[-1, j])
    # distinct embedded modes converge to near-orthogonal vectors
    cross = aligned_correlation(results[0][0].vector, results[1][0].vector)
    assert cross <= 0.1


def test_probe_estimates_real_for_real_couplings():
    for res, _ in probe_embedded(CFG2, GridSpec(0.0, 120.0, 0.01)):
        assert abs(res.eigval_estimate.imag) <= 1e-10


def test_probe_error_shrinks_with_domain():
    short = probe_embedded(CFG2, GridSpec(0.0, 100.0, 0.01))
    long = probe_embedded(CFG2, GridSpec(0.0, 200.0, 0.01))
    for (res_s, _), (res_l, _), mu in zip(short, long, (2.0, 1.0)):
        err_s = abs(res_s.eigval_estimate - mu**2)
        err_l = abs(res_l.eigval_estimate - mu**2)
        assert err_l < err_s


def test_probe_estimate_insensitive_to_couplings():
    grid = GridSpec(0.0, 100.0, 0.01)
    base = probe_embedded(CFG2, grid)
    other = probe_embedded(ModelConfig([2.0, 1.0], [2.5, 0.7]), grid)
    for (res_b, _), (res_o, _) in zip(base, other):
        assert abs(res_b.eigval_estimate - res_o.eigval_estimate) <= 5e-3


def test_probe_samples_only_v_and_v_block_by_block():
    # K = 200,001 at n = 2: v and V, filled block by block, peak at 58.2 MiB
    # traced; a whole-grid sample that also held v' and W peaked at 65.7
    probe_embedded(CFG2, GridSpec(0.0, 40.0, 0.01))  # warm caches
    tracemalloc.start()
    try:
        probe_embedded(CFG2, GridSpec(0.0, 2000.0, 0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 62 * 2**20
