"""Solver layer against numpy.linalg as an independent reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlab.linalg import (
    BLOCK_ROWS,
    ComplexTridiagonal,
    DenseLU,
    PIVOT_RTOL,
    SingularMatrixError,
    TridiagonalLU,
    batched_solve,
    condition_estimate,
)
from ewlab.spectral_probe import inverse_iteration

M = BLOCK_ROWS[0]


def dense_solve(a, b):
    """One system, b of shape (n,) or (n, m), as the stack with K = 1."""
    b = np.asarray(b)
    x = batched_solve(np.asarray(a)[None], b.reshape(1, b.shape[0], -1))[0]
    return x.reshape(b.shape)


def dense(t):
    """Dense counterpart of a ComplexTridiagonal."""
    return np.diag(t.diag) + np.diag(t.sub, -1) + np.diag(t.super, 1)


def swapping_bands(rng, k, sub=2.0, diag=3.0, sup=0.5):
    """Random complex bands; the default ones swap rows at ~half the steps."""
    def c(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ComplexTridiagonal(sub * c(k - 1), diag + c(k), sup * c(k - 1))


def backward_error(t, x, b):
    """|T x - b| relative to |T| |x| + |b|, in the max norm."""
    norm_t = np.max(np.abs(dense(t)).sum(axis=1))
    return (np.max(np.abs(t.matvec(x) - b))
            / (norm_t * np.max(np.abs(x)) + np.max(np.abs(b))))


def _dense_lu_reference(mats, b):
    """(lu, perm, swaps, det, x) of a (K, n, n) stack, laid out radius-first.

    The elimination the batch-last DenseLU replaced, kept as its reference:
    the same pivots, swaps, multipliers and Schur updates on a (K, n, n)
    copy, whose innermost loops run along each system's rows.
    """
    lu = np.array(mats, dtype=complex)
    nbatch, n = lu.shape[0], lu.shape[1]
    scale = np.max(np.abs(lu), axis=2)
    rows = np.arange(nbatch)
    perm = np.tile(np.arange(n), (nbatch, 1))
    swaps = np.zeros(nbatch, dtype=int)
    for k in range(n):
        p = k + np.argmax(np.abs(lu[:, k:, k]), axis=1)
        assert np.all(np.abs(lu[rows, p, k]) > PIVOT_RTOL * scale[rows, p])
        for block in (lu, scale, perm):
            tmp = block[rows, k].copy()
            block[rows, k] = block[rows, p]
            block[rows, p] = tmp
        swaps += p != k
        lu[:, k + 1:, k] /= lu[:, k, k][:, None]
        lu[:, k + 1:, k + 1:] -= (lu[:, k + 1:, k, None]
                                  * lu[:, k, None, k + 1:])
    det = (np.where(swaps % 2 == 0, 1.0, -1.0)
           * np.prod(np.diagonal(lu, axis1=1, axis2=2), axis=1))
    y = np.asarray(b, dtype=complex)[rows[:, None], perm]
    for k in range(n):
        y[:, k + 1:, :] -= lu[:, k + 1:, k, None] * y[:, k, None, :]
    for k in range(n - 1, -1, -1):
        acc = y[:, k, :] - np.sum(lu[:, k, k + 1:, None] * y[:, k + 1:, :],
                                  axis=1)
        y[:, k, :] = acc / lu[:, k, k][:, None]
    return lu, perm, swaps, det, y


def shuffled_stack(rng, k, n, boost):
    """K random complex matrices with boost * n added to the diagonal and
    the rows of each shuffled: from boost ~ 1 up the pivots are the shuffled
    diagonal, so nearly every step swaps rows; near 0 they are data-chosen.
    """
    mats = (rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
            + boost * n * np.eye(n))
    order = np.argsort(rng.random((k, n)), axis=1)
    return mats[np.arange(k)[:, None], order]


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 300), n=st.integers(1, 30), m_frac=st.floats(0.0, 1.0),
       boost=st.floats(0.0, 2.0), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_dense_lu_matches_the_radius_first_reference(k, n, m_frac, boost, real,
                                                     seed):
    rng = np.random.default_rng(seed)
    m = 1 + min(int(m_frac * n), n - 1)
    mats = shuffled_stack(rng, k, n, boost)
    if real:
        mats = mats.real
    b = rng.standard_normal((k, n, m)) + 1j * rng.standard_normal((k, n, m))
    lu, perm, swaps, det, want = _dense_lu_reference(mats, b)
    got = DenseLU(mats)
    assert np.array_equal(got.lu, lu)
    assert np.array_equal(got.perm, perm)
    assert np.array_equal(got.swaps, swaps)
    assert np.array_equal(got.det(), det)
    x = got.solve(b)
    assert x.shape == (k, n, m)
    if m > 1:
        assert np.array_equal(x, want)
    else:
        # one right-hand side: the reference's products and sums run along
        # a system's rows, where numpy picks other complex multiply loops
        # and sums pairwise, so the last bits differ; kappa * 1e-15
        # relative bounds the round-off of either
        cond = np.linalg.cond(mats, p=np.inf)
        err = np.max(np.abs(x - want), axis=(1, 2))
        assert np.all(err <= 1e-15 * cond * np.max(np.abs(want), axis=(1, 2)))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 200), n=st.integers(1, 30), m=st.integers(1, 3),
       boost=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_real_dense_lu_is_the_real_part_of_its_complex_cast(k, n, m, boost,
                                                            seed):
    rng = np.random.default_rng(seed)
    mats = shuffled_stack(rng, k, n, boost).real
    b = rng.standard_normal((k, n, m))
    real, cplx = DenseLU(mats), DenseLU(mats.astype(complex))
    assert np.array_equal(real.perm, cplx.perm)
    assert np.array_equal(real.swaps, cplx.swaps)
    for got, want in ((real.lu, cplx.lu), (real.det(), cplx.det()),
                      (real.solve(b), cplx.solve(b.astype(complex)))):
        assert got.dtype == float and want.dtype == complex
        assert got.tobytes() == want.real.tobytes()
        assert not np.any(want.imag)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_dense_lu_leaves_its_inputs_alone(k, real):
    # at K = 1 a batch-last view of the input is contiguous already, and a
    # factorization that does not copy overwrites the caller's matrix
    rng = np.random.default_rng(14)
    mats = shuffled_stack(rng, k, 4, 0.5)
    b = rng.standard_normal((k, 4, 2)) + 1j * rng.standard_normal((k, 4, 2))
    if real:
        mats, b = mats.real.copy(), b.real.copy()
    before = mats.copy(), b.copy()
    lu = DenseLU(mats)
    lu.solve(b)
    lu.det()
    batched_solve(mats, b)
    condition_estimate(mats)
    assert np.array_equal(mats, before[0])
    assert np.array_equal(b, before[1])


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


def test_nan_system_is_singular():
    # a NaN pivot fails the pivot test as a zero one does, whatever its scale
    mats = np.stack([np.eye(2)] * 4).astype(complex)
    mats[2, 1, 0] = np.nan
    with pytest.raises(SingularMatrixError, match="batch entry 2") as exc:
        DenseLU(mats)
    assert exc.value.entry == 2


def test_tridiagonal_identity():
    t = ComplexTridiagonal(np.zeros(2), np.ones(3), np.zeros(2))
    b = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.allclose(TridiagonalLU(t).solve(b), b, atol=1e-16, rtol=0.0)


def test_tridiagonal_small_system():
    t = ComplexTridiagonal(np.ones(2), np.full(3, 2.0), np.ones(2))
    b = np.array([1.0, 0.0, 0.0], dtype=complex)
    x = TridiagonalLU(t).solve(b)
    assert np.max(np.abs(t.matvec(x) - b)) <= 1e-14


def test_tridiagonal_matvec_matches_dense():
    rng = np.random.default_rng(21)
    t = ComplexTridiagonal(rng.standard_normal(9), rng.standard_normal(10),
                           rng.standard_normal(9))
    x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    assert np.allclose(t.matvec(x), dense(t) @ x, atol=1e-14, rtol=0.0)


def test_tridiagonal_large_seeded_residual():
    rng = np.random.default_rng(22)
    k = 1000
    sub = rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1)
    sup = rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1)
    diag = 8.0 + rng.standard_normal(k) + 1j * rng.standard_normal(k)
    t = ComplexTridiagonal(sub, diag, sup)
    b = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x = TridiagonalLU(t).solve(b)
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
        assert np.max(np.abs(TridiagonalLU(t).solve(b)
                             - dense_solve(dense(t), b))) <= 1e-12


def test_tridiagonal_reuse_of_factorization():
    rng = np.random.default_rng(24)
    t = ComplexTridiagonal(rng.standard_normal(49), 6.0 + rng.standard_normal(50),
                           rng.standard_normal(49))
    lu = TridiagonalLU(t)
    for _ in range(3):
        b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        assert np.max(np.abs(t.matvec(lu.solve(b)) - b)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, M - 1, M, M + 1, 2 * M + 1, 5 * M + 3])
def test_partitioned_solve_matches_numpy(k):
    rng = np.random.default_rng(28)
    t = swapping_bands(rng, k)
    b = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    lu = TridiagonalLU(t)
    # these draws pass the bounds at the first block length shorter than K
    assert lu.block_rows == next((m for m in BLOCK_ROWS if m < k), k)
    want = np.linalg.solve(dense(t), b)
    assert np.max(np.abs(lu.solve(b) - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 5 * M + 3), seed=st.integers(0, 2**32 - 1),
       sub=st.floats(0.0, 3.0), diag=st.floats(0.0, 4.0),
       sup=st.floats(0.0, 3.0))
def test_partitioned_solve_property(k, seed, sub, diag, sup):
    rng = np.random.default_rng(seed)
    t = swapping_bands(rng, k, sub, diag, sup)
    b = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    a = dense(t)
    cond = np.linalg.cond(a)
    if not cond < 1e10:
        return  # numerically singular draws say nothing about the split
    x = TridiagonalLU(t).solve(b)
    assert backward_error(t, x, b) <= 1e-14
    want = np.linalg.solve(a, b)
    assert np.max(np.abs(x - want)) <= 1e-14 * cond * np.max(np.abs(want))


def test_resonant_blocks_are_split_again():
    # the free Laplacian at probe scale, shifted to the first Dirichlet
    # eigenvalue of an M-row block: every M-row block is singular at once
    h = 0.01
    k = 5 * M + 3
    off = np.full(k - 1, -1.0 / h**2, dtype=complex)
    t = ComplexTridiagonal(off, np.full(k, 2.0 / h**2, dtype=complex), off)
    shift = (2.0 / h**2) * (1.0 - math.cos(math.pi / (M + 1)))
    shifted = ComplexTridiagonal(off, t.diag - shift, off)
    lu = TridiagonalLU(shifted)
    assert lu.block_rows != M
    rng = np.random.default_rng(26)
    b = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    assert backward_error(shifted, lu.solve(b), b) <= 1e-15
    res = inverse_iteration(t, shift)
    assert res.residual <= 1e-10


@pytest.mark.parametrize("row", [0, 5 * M + 2, 2 * (M + 1) + M // 2, M],
                         ids=["first", "last", "inside_block", "separator"])
def test_partitioned_lu_names_the_zero_pivot_row(row):
    # a decoupled zero row and column: an exact zero pivot at `row` however
    # the rows are split
    rng = np.random.default_rng(27)
    k = 5 * M + 3
    t = swapping_bands(rng, k, sub=0.5, diag=4.0, sup=0.5)
    t.diag[row] = 0.0
    for band in (t.sub, t.super):
        band[max(row - 1, 0):row + 1] = 0.0
    with pytest.raises(SingularMatrixError, match=f"pivot {row} below"):
        TridiagonalLU(t)


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
    assert np.allclose(condition_estimate(mats), true, rtol=1e-12, atol=0.0)
