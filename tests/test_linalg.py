"""Solver layer against numpy.linalg as an independent reference."""

import numpy as np
import pytest

from ewlab.linalg import (
    ComplexTridiagonal,
    DenseLU,
    SingularMatrixError,
    TridiagonalLU,
    batched_solve,
    condition_estimate,
    tridiag_solve,
)


def dense_solve(a, b):
    """One system, b of shape (n,) or (n, m), as the stack with K = 1."""
    b = np.asarray(b)
    x = batched_solve(np.asarray(a)[None], b.reshape(1, b.shape[0], -1))[0]
    return x.reshape(b.shape)


def test_dense_solve_identity():
    b = np.array([3.0, -1.0, 2.5], dtype=complex)
    assert np.array_equal(dense_solve(np.eye(3), b), b)


def test_dense_solve_diagonal():
    a = np.diag([2.0, 1j])
    got = dense_solve(a, np.array([2.0, 1j]))
    assert np.allclose(got, [1.0, 1.0], atol=1e-16, rtol=0.0)


def test_dense_solve_seeded_recovery():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        got = dense_solve(a, a @ x)
        assert np.max(np.abs(got - x)) <= 1e-12


def test_dense_solve_matches_lapack():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    assert np.allclose(dense_solve(a, b), np.linalg.solve(a, b),
                       atol=1e-13, rtol=1e-13)


def test_dense_solve_rejects_singular():
    with pytest.raises(SingularMatrixError):
        dense_solve(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(SingularMatrixError):
        dense_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


def test_pivot_test_is_scale_relative():
    # tiny absolute pivots are fine when the whole row is tiny
    a = np.diag([1e-200, 1.0])
    assert np.allclose(dense_solve(a, np.array([1e-200, 1.0])), [1.0, 1.0])
    # near-singular relative to row scale is rejected
    with pytest.raises(SingularMatrixError):
        dense_solve(np.array([[1.0, 1.0], [1.0, 1.0 + 2e-15]]), np.ones(2))


def test_dense_lu_determinant():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    got = DenseLU(a[None]).det()
    want = np.linalg.det(a)
    assert got.shape == (1,)
    assert abs(got[0] - want) <= 1e-12 * abs(want)
    assert DenseLU(np.diag([2.0, 3.0])[None]).det()[0] == pytest.approx(6.0)
    # a row swap flips the sign, per stack entry
    swapped = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    assert np.array_equal(DenseLU(swapped).det(), [-1.0, 1.0])


def test_solve_adjoint():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = DenseLU(a[None]).solve_adjoint(b[None, :, None])[0, :, 0]
    assert np.max(np.abs(a.conj().T @ x - b)) <= 1e-12
    mats = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    rhs = rng.standard_normal((4, 6, 2)) + 1j * rng.standard_normal((4, 6, 2))
    x = DenseLU(mats).solve_adjoint(rhs)
    assert np.max(np.abs(mats.conj().transpose(0, 2, 1) @ x - rhs)) <= 1e-12


def test_batched_solve_matches_lapack():
    rng = np.random.default_rng(15)
    mats = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
    rhs = rng.standard_normal((50, 3, 2)) + 1j * rng.standard_normal((50, 3, 2))
    got = batched_solve(mats, rhs)
    want = np.linalg.solve(mats, rhs)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_batched_solve_reports_offending_index():
    mats = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)]).astype(complex)
    rhs = np.ones((3, 2, 1), dtype=complex)
    with pytest.raises(SingularMatrixError, match="batch entry 1"):
        batched_solve(mats, rhs)


def test_tridiagonal_identity():
    t = ComplexTridiagonal(np.zeros(2), np.ones(3), np.zeros(2))
    b = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.allclose(tridiag_solve(t, b), b, atol=1e-16, rtol=0.0)


def test_tridiagonal_small_system():
    t = ComplexTridiagonal(np.ones(2), np.full(3, 2.0), np.ones(2))
    b = np.array([1.0, 0.0, 0.0], dtype=complex)
    x = tridiag_solve(t, b)
    assert np.max(np.abs(t.matvec(x) - b)) <= 1e-14


def test_tridiagonal_matvec_matches_dense():
    rng = np.random.default_rng(21)
    t = ComplexTridiagonal(rng.standard_normal(9), rng.standard_normal(10),
                           rng.standard_normal(9))
    x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    assert np.allclose(t.matvec(x), t.dense() @ x, atol=1e-14, rtol=0.0)


def test_tridiagonal_large_seeded_residual():
    rng = np.random.default_rng(22)
    k = 1000
    sub = rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1)
    sup = rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1)
    diag = 8.0 + rng.standard_normal(k) + 1j * rng.standard_normal(k)
    t = ComplexTridiagonal(sub, diag, sup)
    b = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x = tridiag_solve(t, b)
    assert np.max(np.abs(t.matvec(x) - b)) / np.max(np.abs(b)) <= 1e-12


def test_tridiagonal_agrees_with_dense_solver():
    rng = np.random.default_rng(23)
    for k in (2, 7, 200):
        # general bands so row swaps actually happen inside the factorization
        t = ComplexTridiagonal(
            3.0 * rng.standard_normal(k - 1),
            rng.standard_normal(k) + 1j * rng.standard_normal(k),
            3.0 * rng.standard_normal(k - 1))
        b = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        assert np.max(np.abs(tridiag_solve(t, b)
                             - dense_solve(t.dense(), b))) <= 1e-12


def test_tridiagonal_reuse_of_factorization():
    rng = np.random.default_rng(24)
    t = ComplexTridiagonal(rng.standard_normal(49), 6.0 + rng.standard_normal(50),
                           rng.standard_normal(49))
    lu = TridiagonalLU(t)
    for _ in range(3):
        b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        assert np.max(np.abs(t.matvec(lu.solve(b)) - b)) <= 1e-12


def test_tridiagonal_rejects_singular():
    # diagonal matrix with an exact zero eigenvalue after the shift
    t = ComplexTridiagonal(np.zeros(2), np.array([1.0, 0.0, 3.0]), np.zeros(2))
    with pytest.raises(SingularMatrixError):
        TridiagonalLU(t)


def test_tridiagonal_band_length_validation():
    with pytest.raises(ValueError):
        ComplexTridiagonal(np.zeros(3), np.ones(3), np.zeros(2))
    with pytest.raises(ValueError):
        ComplexTridiagonal(np.zeros(0), np.ones(0), np.zeros(0))


def test_condition_estimate_simple_matrices():
    assert condition_estimate(np.eye(4)[None])[0] == pytest.approx(1.0)
    got = condition_estimate(np.stack([np.diag([10.0, 1.0]), np.eye(2)]))
    assert got == pytest.approx([10.0, 1.0])


def test_condition_estimate_within_factor_of_truth():
    rng = np.random.default_rng(25)
    mats = rng.standard_normal((10, 5, 5)) + 1j * rng.standard_normal((10, 5, 5))
    true = (np.abs(mats).sum(axis=1).max(axis=1)
            * np.abs(np.linalg.inv(mats)).sum(axis=1).max(axis=1))
    est = condition_estimate(mats)
    assert np.all(true / 5.0 <= est)
    assert np.all(est <= true * (1.0 + 1e-10))
