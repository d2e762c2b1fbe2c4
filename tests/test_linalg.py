"""Solver layer against numpy.linalg as an independent reference."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ewlab.linalg
from ewlab.cli import load_config
from ewlab.construct import sample_grid
from ewlab.linalg import (
    BLOCK_ROWS,
    ComplexTridiagonal,
    DenseLU,
    PIVOT_RTOL,
    SingularMatrixError,
    TridiagonalLU,
    _BlockLU,
    _divide,
    batched_solve,
    sum_rows,
)
from ewlab.spectral_probe import (
    build_hamiltonian,
    inverse_iteration,
    seeded_start,
)

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


def band_norm(t):
    """|T| in the max norm, from the bands."""
    rows = np.abs(t.diag)
    rows[1:] += np.abs(t.sub)
    rows[:-1] += np.abs(t.super)
    return np.max(rows)


def backward_error(t, x, b):
    """|T x - b| relative to |T| |x| + |b|, in the max norm."""
    return (np.max(np.abs(t.matvec(x) - b))
            / (band_norm(t) * np.max(np.abs(x)) + np.max(np.abs(b))))


def _dense_lu_reference(mats, b):
    """(lu, perm, swaps, det, x) of a (K, n, n) stack, laid out radius-first.

    The elimination the batch-last DenseLU replaced, kept as its reference:
    the same pivots, swaps, multipliers and Schur updates on a (K, n, n)
    copy, whose innermost loops run along each system's rows, then forward
    and back substitution of the (K, n, m) right-hand sides b. The back
    substitution adds its terms in index order, as DenseLU does; np.sum
    along a lone run (m = 1) would add them pairwise.
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
        terms = lu[:, k, k + 1:, None] * y[:, k + 1:, :]
        total = np.add.accumulate(terms, axis=1)[:, -1] if k < n - 1 else 0.0
        y[:, k, :] = (y[:, k, :] - total) / lu[:, k, k][:, None]
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
@given(k=st.integers(1, 300), n=st.integers(1, 30), m=st.integers(0, 120),
       boost=st.floats(0.0, 2.0), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(k=1, n=6, m=1, boost=0.5, real=False, seed=0)  # one lone run, K m = 1
@example(k=1, n=6, m=1, boost=0.5, real=True, seed=0)
def test_dense_lu_matches_the_radius_first_reference(k, n, m, boost, real,
                                                     seed):
    # right-hand sides carried through the elimination give the bits of
    # the reference's separate forward and back substitution, for any m
    rng = np.random.default_rng(seed)
    m = min(m, 4 * n)
    mats = shuffled_stack(rng, k, n, boost)
    b = rng.standard_normal((k, n, m)) + 1j * rng.standard_normal((k, n, m))
    if real:
        mats, b = mats.real, b.real
    lu, _, swaps, det, want = _dense_lu_reference(mats, b)
    got = DenseLU(mats, b)
    assert np.array_equal(got.lu, lu)
    assert np.array_equal(got.swaps, swaps)
    assert np.array_equal(got.det(), det)
    x = got.solve()
    assert x.shape == (k, n, m)
    assert np.array_equal(x, want)


@pytest.mark.parametrize("dtype", [float, complex])
def test_sum_rows_adds_each_radius_in_order(dtype):
    # over the rows j of a radius-last (n, K) x, each radius's sum is the
    # Python left fold from 0.0, and a lone radius has its bits in a stack;
    # a radius of -0.0 rows sums to +0.0
    rng = np.random.default_rng(23)
    for n in range(1, 131):
        for k in (1, 2, 7, 300):
            x = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-9, 9, (n, k))
            if dtype is complex:
                x = x + 1j * rng.standard_normal((n, k)) * 10.0 ** rng.integers(
                    -9, 9, (n, k))
            x[:, ::3] = -0.0
            got = sum_rows(x)
            assert got.dtype == dtype and got.shape == (k,)
            want = []
            for column in x.T.tolist():
                total = 0.0
                for value in column:
                    total = total + value
                want.append(total)
            assert got.tobytes() == np.array(want, dtype=dtype).tobytes(), (
                n, k)
            for j in range(0, k, 37):
                alone = sum_rows(x[:, j:j + 1])
                assert alone.tobytes() == got[j:j + 1].tobytes(), (n, k, j)
    assert sum_rows([]) == 0.0 and sum_rows(iter(())) == 0.0


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 200), n=st.integers(1, 30), m=st.integers(1, 3),
       boost=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_real_dense_lu_is_the_real_part_of_its_complex_cast(k, n, m, boost,
                                                            seed):
    rng = np.random.default_rng(seed)
    mats = shuffled_stack(rng, k, n, boost).real
    b = rng.standard_normal((k, n, m))
    real = DenseLU(mats, b)
    cplx = DenseLU(mats.astype(complex), b.astype(complex))
    assert np.array_equal(real.swaps, cplx.swaps)
    for got, want in ((real.lu, cplx.lu), (real.det(), cplx.det()),
                      (real.solve(), cplx.solve())):
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
    lu = DenseLU(mats, b)
    lu.solve()
    lu.det()
    batched_solve(mats, b)
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


def _full_search_factors(mats, rhs):
    """(factors, swaps) of DenseLU with its former pivot search, kept as its
    reference: argmax over every system's column at every step, and a swap
    wherever it is not row k. Raises SingularMatrixError as DenseLU does.
    """
    nbatch, n = mats.shape[0], mats.shape[1]
    lu = np.empty((n, n + rhs.shape[2], nbatch),
                  dtype=np.result_type(mats, rhs, float))
    lu[:, :n] = mats.transpose(1, 2, 0)
    lu[:, n:] = rhs.transpose(1, 2, 0)
    scale = np.array([np.max(np.abs(row), axis=0) for row in lu[:, :n]])
    swaps = np.zeros(nbatch, dtype=int)
    for k in range(n):
        size = np.abs(lu[k:, k])
        p = np.argmax(size, axis=0)
        pivot = np.max(size, axis=0)
        moved = np.flatnonzero(p)
        if moved.size:
            rows = k + p[moved]
            for block in (lu, scale):
                top = block[k, ..., moved]
                block[k, ..., moved] = block[rows, ..., moved]
                block[rows, ..., moved] = top
            swaps[moved] += 1
        bad = ~(pivot > PIVOT_RTOL * scale[k])
        if np.any(bad):
            first = int(np.argmax(bad))
            raise SingularMatrixError(f"pivot {k} below threshold in batch "
                                      f"entry {first}", entry=first)
        lu[k + 1:, k] = _divide(lu[k + 1:, k], lu[k, k])
        for i in range(k + 1, n):
            lu[i, k + 1:] -= lu[i:i + 1, k] * lu[k, k + 1:]
    return lu, swaps


def tied_stack(rng, k, n, real):
    """Small-integer entries (with 3 + 4i beside 5 in complex): most pivot
    columns hold equal magnitudes, so ties decide the rows."""
    mats = rng.integers(-2, 3, (k, n, n)).astype(float)
    if not real:
        mats = mats + 1j * rng.integers(-2, 3, (k, n, n))
        five = rng.random((k, n, n)) < 0.2
        mats[five] = rng.choice([5.0, -5.0, 3 + 4j, -4 + 3j, 5j], five.sum())
    return mats


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 200), n=st.integers(1, 8), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_dense_lu_pivot_search_matches_the_full_argmax(k, n, real, seed):
    # a tie keeps the first row, as argmax does; the factors and swaps are
    # those of the full search, or both searches name the same system
    rng = np.random.default_rng(seed)
    mats = tied_stack(rng, k, n, real)
    rhs = rng.standard_normal((k, n, 2))
    try:
        want = _full_search_factors(mats, rhs)
    except SingularMatrixError as exc:
        with pytest.raises(SingularMatrixError) as got:
            DenseLU(mats, rhs)
        assert got.value.entry == exc.entry and str(got.value) == str(exc)
        return
    got = DenseLU(mats, rhs)
    assert got._factors.tobytes() == want[0].tobytes()
    assert np.array_equal(got.swaps, want[1])


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("row, col", [(0, 0), (2, 0), (1, 1), (2, 1), (2, 2),
                                      (0, 2)])
def test_dense_lu_nan_pivot_names_the_full_search_entry(row, col, real):
    rng = np.random.default_rng(row + 3 * col)
    mats = rng.standard_normal((6, 3, 3)) + 3.0 * np.eye(3)
    if not real:
        mats = mats + 1j * rng.standard_normal((6, 3, 3))
    mats[4, row, col] = np.nan
    mats[5, 2, 2] = np.nan  # fails at the last step: entry 4 comes first
    rhs = np.ones((6, 3, 1))
    with pytest.raises(SingularMatrixError) as want:
        _full_search_factors(mats, rhs)
    with pytest.raises(SingularMatrixError) as got:
        DenseLU(mats, rhs)
    assert got.value.entry == want.value.entry == 4
    assert str(got.value) == str(want.value)


def _block_lu_reference(dl, d, du, x):
    """(dl, d, du, du2, swap, solved x) of P tridiagonal blocks of m rows.

    The lockstep elimination _BlockLU replaced, kept as its reference: every
    row selects between its swapped and unswapped step with np.where in
    every block, and every back substitution row carries the du2 term,
    zero or not. Bands are (rows, P), one column per block, as in _BlockLU.
    """
    m, nblk = d.shape
    dl, d, du = dl.copy(), d.copy(), du.copy()
    du2 = np.zeros((max(m - 2, 0), nblk), dtype=complex)
    swap = np.zeros((max(m - 1, 0), nblk), dtype=bool)
    for i in range(m - 1):
        s = np.abs(d[i]) < np.abs(dl[i])
        piv = np.where(s, dl[i], d[i])
        fact = np.where(s, d[i], dl[i]) / piv
        top = np.where(s, d[i + 1], du[i])
        d[i + 1] = np.where(s, du[i], d[i + 1]) - fact * top
        if i < m - 2:
            du2[i] = np.where(s, du[i + 1], 0.0)
            du[i + 1] = np.where(s, -fact * du[i + 1], du[i + 1])
        d[i], du[i], dl[i], swap[i] = piv, top, fact, s
    x = x.copy()
    for i in range(m - 1):
        top = np.where(swap[i], x[i + 1], x[i])
        x[i + 1] = np.where(swap[i], x[i], x[i + 1]) - dl[i] * top
        x[i] = top
    x[m - 1] /= d[m - 1]
    if m > 1:
        x[m - 2] = (x[m - 2] - du[m - 2] * x[m - 1]) / d[m - 2]
    for i in range(m - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return dl, d, du, du2, swap, x


def mixed_blocks(rng, m, nblk, steady):
    """(dl, d, du, x) of P random complex blocks of m rows whose diagonal
    is scaled row by row: a row scaled by 100 swaps in no block, one scaled
    by 0.3 in about three blocks of four. About `steady` of the rows take
    100. One entry in four of x is an exact zero, as are its whole first
    and last rows, and a part of one entry in four of the others. Every
    zero is +0: a -0 in x can flip the sign of a zero in the solve where
    the reference subtracts its du2 term, 0 * x = -0, from a -0."""
    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    scale = np.where(rng.random(m) < steady, 100.0, 0.3)[:, None]
    dl, d, du, x = c(m - 1, nblk), scale * c(m, nblk), c(m - 1, nblk), c(m, nblk)
    x[rng.random((m, nblk)) < 0.25] = 0.0
    x[[0, -1]] = 0.0
    x.real[rng.random((m, nblk)) < 0.25] = 0.0
    x.imag[rng.random((m, nblk)) < 0.25] = 0.0
    return dl, d, du, x


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 60), nblk=st.integers(1, 40),
       steady=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(m=49, nblk=40, steady=0.5, seed=1)
def test_block_lu_matches_the_where_everywhere_reference(m, nblk, steady,
                                                         seed):
    # rows where no block swaps take the plain step: the same bits
    rng = np.random.default_rng(seed)
    dl, d, du, x = mixed_blocks(rng, m, nblk, steady)
    want = _block_lu_reference(dl, d, du, x)
    lu = _BlockLU(dl, d, du)
    got = (lu.dl, lu.d, lu.du, lu.du2, lu.swap, lu.solve(x.copy()))
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    assert lu.pivoted == [bool(row.any()) for row in lu.swap]


def test_block_lu_mixes_plain_and_pivoting_rows():
    # the example above exercises both kinds of row, in the factor and in
    # the solve
    lu = _BlockLU(*mixed_blocks(np.random.default_rng(1), 49, 40, 0.5)[:3])
    assert 0 < sum(lu.pivoted) < len(lu.pivoted)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 60), nblk=st.integers(1, 40),
       steady=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(m=49, nblk=40, steady=0.5, seed=1)
def test_block_lu_solves_a_stack_as_its_columns(m, nblk, steady, seed):
    # _Partition solves both spikes as one (m, 2, P) stack: the bits of two
    # (m, P) solves
    rng = np.random.default_rng(seed)
    dl, d, du, x = mixed_blocks(rng, m, nblk, steady)
    lu = _BlockLU(dl, d, du)
    stack = np.stack([x, x[::-1]], axis=1)
    lu.solve(stack)
    for i, column in enumerate((x, x[::-1])):
        want = lu.solve(column.copy())
        assert stack[:, i].tobytes() == want.tobytes()


def test_tridiagonal_identity():
    t = ComplexTridiagonal(np.zeros(2), np.ones(3), np.zeros(2))
    b = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.allclose(TridiagonalLU(t).solve(b), b, atol=1e-16, rtol=0.0)


def test_tridiagonal_small_system():
    t = ComplexTridiagonal(np.ones(2), np.full(3, 2.0), np.ones(2))
    b = np.array([1.0, 0.0, 0.0], dtype=complex)
    x = TridiagonalLU(t).solve(b)
    assert np.max(np.abs(t.matvec(x) - b)) <= 1e-14


@pytest.mark.parametrize("k", [2, 10, 4 * M])
def test_zero_diagonal_is_pivoted_away(k):
    # every diagonal entry is an exact zero, so row i swaps with row i+1 at
    # every step: the pivots tested are the swapped ones
    t = ComplexTridiagonal(np.ones(k - 1), np.zeros(k), 2.0 * np.ones(k - 1))
    b = np.arange(1.0, k + 1.0, dtype=complex)
    x = TridiagonalLU(t).solve(b)
    assert np.max(np.abs(x - dense_solve(dense(t), b))) <= 1e-13


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


@settings(max_examples=20, deadline=None)
@given(k=st.integers(50 * (M + 1), 120 * (M + 1)),
       seed=st.integers(0, 2**32 - 1), sub=st.floats(0.0, 3.0),
       diag=st.floats(0.0, 4.0), sup=st.floats(0.0, 3.0))
# max|x| = 3.8e307 here: finite, but |T| max|x| would overflow
@example(k=4096, seed=6895, sub=0.994140625, diag=0.390625, sup=2.296875)
def test_partitioned_solve_property_with_long_separator_systems(k, seed, sub,
                                                                diag, sup):
    # 50 blocks or more: the scalar LU solves separator systems of 49 rows
    # or more. Too large for a dense condition number: |T| |x| / |b| bounds
    # it from below. x can be huge or overflow (a near-bidiagonal draw's
    # inverse grows exponentially along the band), so the bound is compared
    # as |x| / |b| < 1e10 / |T|, which forms no product that can overflow
    rng = np.random.default_rng(seed)
    t = swapping_bands(rng, k, sub, diag, sup)
    b = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    try:
        x = TridiagonalLU(t).solve(b)
    except SingularMatrixError:
        assume(False)  # a pivot at the threshold says nothing of the split
    assume(np.max(np.abs(x)) / np.max(np.abs(b)) < 1e10 / band_norm(t))
    assert backward_error(t, x, b) <= 1e-14


def test_probe_hamiltonian_is_split_once_at_every_shift(monkeypatch):
    # configs/probe.json (K = 19,999) at each mu_j^2: the first split
    # passes, and its separator system of 399 rows is not split again
    root = Path(__file__).resolve().parent.parent
    rc = load_config(str(root / "configs" / "probe.json"))
    t = build_hamiltonian(rc.grid,
                          sample_grid(rc.model, rc.grid.radii()[1:-1])[2])
    events = []  # the block length of every split tried, then "rejected"
    split = ewlab.linalg._Partition.__init__

    def recording(self, sub, diag, sup, m, *args):
        events.append(m)
        try:
            split(self, sub, diag, sup, m, *args)
        except ewlab.linalg._SplitRejected:
            events.append("rejected")
            raise

    monkeypatch.setattr(ewlab.linalg._Partition, "__init__", recording)
    for mu in rc.model.mu:
        events.clear()
        lu = TridiagonalLU(ComplexTridiagonal(t.sub, t.diag - mu**2, t.super))
        assert events == [M]
        assert lu.block_rows == M


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
    res = inverse_iteration(t, shift, start=seeded_start(k, 0))
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

