"""Dense and tridiagonal linear algebra behind the solver paths.

Everything is hand-written on plain numpy arrays, with no LAPACK/BLAS calls:
every product and sum is an elementwise ufunc or a Python loop in a fixed
order, so the solves are bitwise reproducible across runs and BLAS thread
counts, and the error contract (SingularMatrixError at a relative pivot
threshold) is part of the API. Sizes are modest: dense systems are the
coupling dimension (n <= ~50), tridiagonal systems are discretization grids
(up to ~10^6).

There is one dense LU, `DenseLU`, over a (K, n, n) stack vectorized across
the stack index (one system per radius; a single matrix is K = 1), stored
batch-last so that each elimination step is one numpy loop over all K
systems, in its dtype. Its factors serve solves, determinants and the exact
1-norm condition number; `batched_solve` is the one-shot factor-and-solve.

There is one tridiagonal LU, `TridiagonalLU`, a partitioned (SPIKE) LU:
the rows are cut into blocks of about 50, all blocks are eliminated in
lockstep with one numpy operation per row position, and the rows between
blocks solve a smaller tridiagonal system that is split the same way.

Dense systems A + G(r) are non-Hermitian whenever the couplings are complex,
and tridiagonal shifts can sit close to discrete eigenvalues, so partial
pivoting is used everywhere; inside each tridiagonal block the elimination
carries the usual one extra superdiagonal of fill plus a swap flag per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexTridiagonal",
    "DenseLU",
    "PIVOT_RTOL",
    "SingularMatrixError",
    "TridiagonalLU",
    "batched_solve",
    "condition_estimate",
]

# A pivot at or below this times the row scale counts as singular.
PIVOT_RTOL = 1e-14

# Rows per block of TridiagonalLU's split, in the order tried. One length
# alone has resonant shifts; of these three, one keeps the spikes of the
# shifted free Laplacian within 3.7 at every shift inside its band.
BLOCK_ROWS = (49, 40, 28)

# Largest |coupling * block inverse| entry a split may have. A solve's
# backward error grows with it: on the probe Hamiltonian (K = 19,999,
# h = 0.01) by up to 1.4e-16 per unit at the lengths of BLOCK_ROWS, and
# inverse iteration at tol 1e-10 against |H| ~ 4e4 needs it below 2.5e-15.
SPIKE_BOUND = 8.0


class SingularMatrixError(ArithmeticError):
    """A pivot fell below the relative threshold during elimination.

    `entry` is the stack index of the first singular system when the
    failing factorization was a (K, n, n) stack, else None.
    """

    def __init__(self, message: str, entry: int | None = None) -> None:
        super().__init__(message)
        self.entry = entry


class DenseLU:
    """LU factorization with partial pivoting of a stack of square matrices.

    P_k A_k = L_k U_k for every k of a (K, n, n) stack, with unit lower
    triangular L_k stored below the diagonal of `lu` and U_k on and above
    it; perm[k] lists the rows of A_k in pivot order. Row scales are taken
    from the input and swapped along with the rows, so the singularity test
    is relative to the data, not absolute.

    The factors are stored batch-last, as an (n, n, K) array that is the
    one copy of the input: entry (i, j) of every system is a contiguous run
    of K values, so each pivot search, row swap, multiplier and Schur update
    is one numpy loop over the whole stack rather than n - k elements of one
    system. `lu` (K, n, n) and `perm` (K, n) are transposed views of it.
    Each element goes through the same operations in the same order as in
    a system-by-system elimination, and max and argmax are exact. The bits
    can still depend on the layout in two ways. numpy's complex multiply
    loops do not all round alike, and the strides pick the loop; here every
    product runs along the contiguous batch axis. And a reduction's order
    follows the layout: the back substitution adds the terms u_kj y_j in
    index order j = k+1, ..., n-1, never pairwise, and `det` multiplies the
    pivots of a contiguous (K, n) copy. Dtypes follow the input and b; a real
    x / y is x * (1/y), as complex division computes it at zero imaginary
    part, so a real stack gives the real part of its complex cast, bitwise.
    """

    def __init__(self, mats) -> None:
        mats = np.asarray(mats)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("mats must have shape (K, n, n)")
        nbatch, n = mats.shape[0], mats.shape[1]
        # a fresh array even at K = 1, where (1, n, n) -> (n, n, 1) is
        # already contiguous and a conversion would alias the caller's stack
        lu = np.empty((n, n, nbatch), dtype=np.result_type(mats.dtype, float))
        lu[...] = mats.transpose(1, 2, 0)
        scale = np.max(np.abs(lu), axis=1)
        perm = np.repeat(np.arange(n)[:, None], nbatch, axis=1)
        swaps = np.zeros(nbatch, dtype=int)
        for k in range(n):
            p = k + np.argmax(np.abs(lu[k:, k]), axis=0)
            # swap rows k and p of the systems whose pivot row is not k
            moved = np.flatnonzero(p != k)
            if moved.size:
                rows = p[moved]
                for block in (lu, scale, perm):
                    top = block[k, ..., moved]
                    block[k, ..., moved] = block[rows, ..., moved]
                    block[rows, ..., moved] = top
                swaps[moved] += 1
            bad = ~(np.abs(lu[k, k]) > PIVOT_RTOL * scale[k])  # NaN is bad
            if np.any(bad):
                first = int(np.argmax(bad))
                raise SingularMatrixError(
                    f"pivot {k} below threshold in batch entry {first}",
                    entry=first,
                )
            lu[k + 1:, k] = _divide(lu[k + 1:, k], lu[k, k])
            lu[k + 1:, k + 1:] -= lu[k + 1:, k, None] * lu[k, None, k + 1:]
        self.lu = lu.transpose(2, 0, 1)
        self.perm = perm.T
        self.swaps = swaps

    def solve(self, b) -> np.ndarray:
        """Solve A_k x_k = b_k for right-hand sides b of shape (K, n, m).

        Returns a (K, n, m) view of the batch-last solution.
        """
        lu = self.lu.transpose(1, 2, 0)
        nbatch, n = self.perm.shape
        b = np.asarray(b)
        cols = np.arange(nbatch)
        # the one copy of b, gathered in pivot order row by row
        y = np.empty((n, b.shape[2], nbatch), dtype=np.result_type(lu, b))
        for i in range(n):
            y[i] = b[cols, self.perm[:, i]].T
        for k in range(n):
            y[k + 1:] -= lu[k + 1:, k, None] * y[k]
        for k in range(n - 1, -1, -1):
            terms = lu[k, k + 1:, None] * y[k + 1:]
            if y[k].size == 1:  # np.sum would add a lone run pairwise
                terms = np.cumsum(terms, axis=0)[-1:]
            y[k] = _divide(y[k] - np.sum(terms, axis=0), lu[k, k])
        return y.transpose(2, 0, 1)

    def det(self) -> np.ndarray:
        """det A_k = (pivot parity) * prod(diag U_k), shape (K,)."""
        sign = np.where(self.swaps % 2 == 0, 1.0, -1.0)
        # along the strided axis of a batch-last view, np.prod takes another
        # loop and rounds differently; a contiguous copy keeps the bits
        pivots = np.diagonal(self.lu, axis1=1, axis2=2).copy()
        return sign * np.prod(pivots, axis=1)


def _divide(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x / y if np.iscomplexobj(x) or np.iscomplexobj(y) else x * (1.0 / y)


def batched_solve(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One-shot solve A_k x_k = b_k, shapes (K, n, n) and (K, n, m)."""
    return DenseLU(mats).solve(rhs)


@dataclass(frozen=True, eq=False)
class ComplexTridiagonal:
    """Tridiagonal matrix as three bands: sub (K-1), diag (K), super (K-1)."""

    sub: np.ndarray
    diag: np.ndarray
    super: np.ndarray

    def __post_init__(self) -> None:
        sub = np.asarray(self.sub, dtype=complex)
        diag = np.asarray(self.diag, dtype=complex)
        sup = np.asarray(self.super, dtype=complex)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "super", sup)
        k = diag.size
        if k == 0:
            raise ValueError("empty tridiagonal matrix")
        if sub.size != k - 1 or sup.size != k - 1:
            raise ValueError("band lengths must be K-1, K, K-1")

    @property
    def size(self) -> int:
        return self.diag.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """T x without forming the dense matrix."""
        x = np.asarray(x, dtype=complex)
        y = self.diag * x
        y[:-1] += self.super * x[1:]
        y[1:] += self.sub * x[:-1]
        return y


class _BlockLU:
    """Pivoted LU of P tridiagonal blocks of m rows, factored in lockstep.

    Bands are (rows, P) arrays with one column per block, so step i of the
    LAPACK gttrf elimination runs on row i of every block at once. Step i
    either eliminates dl[i] in place or exchanges rows i and i+1 first,
    which moves a super entry into the du2 fill band; swap[i] records the
    choice so the solve can replay the permutation. d ends up holding the
    pivots (the diagonal of U).
    """

    def __init__(self, dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> None:
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
        self.dl, self.d, self.du, self.du2, self.swap = dl, d, du, du2, swap

    def solve(self, x: np.ndarray) -> np.ndarray:
        """Overwrite x, shape (m, P), with the block solves of its columns."""
        dl, d, du, du2, swap = self.dl, self.d, self.du, self.du2, self.swap
        m = d.shape[0]
        for i in range(m - 1):
            top = np.where(swap[i], x[i + 1], x[i])
            x[i + 1] = np.where(swap[i], x[i], x[i + 1]) - dl[i] * top
            x[i] = top
        x[m - 1] /= d[m - 1]
        if m > 1:
            x[m - 2] = (x[m - 2] - du[m - 2] * x[m - 1]) / d[m - 2]
        for i in range(m - 3, -1, -1):
            x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
        return x


class _SplitRejected(Exception):
    """A split into blocks failed its pivot or spike bound; try the next."""


class _Partition:
    """T x = b as P blocks of m rows with one separator row after each.

    Row q of T is row q % (m+1) of block q // (m+1), or that block's
    separator when q % (m+1) == m; rows past the end of T pad the last
    block with `pad` on the diagonal and no coupling. Arrays are stored
    (m+1, P), one column per block. With the block solves of the couplings
    to the neighbouring separators, left = T_p^-1 sub e_1 and right =
    T_p^-1 super e_m (the spikes), block p of x is
    T_p^-1 b_p - left y_(p-1) - right y_p, and the separator values y solve
    a tridiagonal Schur complement of size P-1, factored by this same code.

    Raises _SplitRejected when a block pivot is at or below `limit`, or a
    spike entry exceeds SPIKE_BOUND: a block whose own Dirichlet problem
    resonates makes the spikes large, and they multiply the separator
    values' rounding errors into x. A single block (P = 1) has no spikes,
    and its failing pivot raises SingularMatrixError naming its row.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 m: int, limit: float, pad: float) -> None:
        k = diag.size
        nblk = -(-(k + 1) // (m + 1))
        shape = (nblk, m + 1)
        dg = np.full(nblk * (m + 1), pad, dtype=complex)
        dg[:k] = diag
        lo = np.zeros(dg.size, dtype=complex)  # lo[q] = T[q, q-1]
        lo[1:k] = sub
        up = np.zeros(dg.size, dtype=complex)  # up[q] = T[q, q+1]
        up[:k - 1] = sup
        dg, lo, up = (np.ascontiguousarray(a.reshape(shape).T)
                      for a in (dg, lo, up))
        lu = _BlockLU(lo[1:m], dg[:m], up[:m - 1])
        small = ~(np.abs(lu.d) > limit)  # NaN pivots count as small
        if np.any(small):
            if nblk == 1:
                row = int(np.argmax(small[:, 0]))
                raise SingularMatrixError(f"pivot {row} below threshold")
            raise _SplitRejected
        self.size, self.block_rows, self.lu, self.reduced = k, m, lu, None
        if nblk == 1:
            return
        left = np.zeros((m, nblk), dtype=complex)
        left[0] = lo[0]
        right = np.zeros((m, nblk), dtype=complex)
        right[m - 1] = up[m - 1]
        lu.solve(left)
        lu.solve(right)
        # written so that NaN spikes are rejected too
        if not max(np.max(np.abs(left)), np.max(np.abs(right))) <= SPIKE_BOUND:
            raise _SplitRejected
        gamma, delta = lo[m, :-1], up[m, :-1]
        try:
            self.reduced = _factor(
                -gamma[1:] * left[m - 1, 1:-1],
                dg[m, :-1] - gamma * right[m - 1, :-1] - delta * left[0, 1:],
                -delta[:-1] * right[0, 1:-1], limit, pad)
        except SingularMatrixError:
            raise _SplitRejected from None
        self.left, self.right = left, right
        self.gamma, self.delta = gamma, delta

    def solve(self, b: np.ndarray) -> np.ndarray:
        m, nblk = self.lu.d.shape
        x = np.zeros(nblk * (m + 1), dtype=complex)
        x[:self.size] = b
        x = np.ascontiguousarray(x.reshape(nblk, m + 1).T)
        g = self.lu.solve(x[:m])
        if self.reduced is not None:
            y = self.reduced.solve(x[m, :-1] - self.gamma * g[m - 1, :-1]
                                   - self.delta * g[0, 1:])
            g[:, 1:] -= self.left[:, 1:] * y
            g[:, :-1] -= self.right[:, :-1] * y
            x[m, :-1] = y
        return x.T.ravel()[:self.size]


def _factor(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
            limit: float, pad: float) -> _Partition:
    """The first split of BLOCK_ROWS that passes its bounds, else one block."""
    k = diag.size
    for m in BLOCK_ROWS:
        if m < k:
            try:
                return _Partition(sub, diag, sup, m, limit, pad)
            except _SplitRejected:
                pass
    return _Partition(sub, diag, sup, k, limit, pad)


class TridiagonalLU:
    """Partitioned LU with partial pivoting inside each block.

    The rows are cut into blocks of BLOCK_ROWS[0] rows with one separator
    row between neighbours; all blocks are factored in lockstep, one numpy
    operation per row position over the vector of blocks, and the separator
    unknowns solve a tridiagonal Schur complement, which is split the same
    way until one block is left. This is the SPIKE scheme (Polizzi & Sameh,
    Parallel Computing 32, 2006) with the pivoting inside blocks of Chang,
    Stratton & Hwu (SC 2012).

    A split is rejected when a block pivot falls to the singularity
    threshold or a spike entry |coupling * T_p^-1| exceeds SPIKE_BOUND;
    the next length of BLOCK_ROWS is tried, and the last resort is a single
    block holding every row, which is the plain banded LU. Only that single
    block raises SingularMatrixError, at PIVOT_RTOL of the largest band
    entry of T, naming the row of T. `block_rows` is the block length in use.
    """

    def __init__(self, t: ComplexTridiagonal) -> None:
        scale = float(np.max(np.abs(t.diag)))
        if t.size > 1:
            scale = max(scale, float(np.max(np.abs(t.sub))),
                        float(np.max(np.abs(t.super))))
        with np.errstate(all="ignore"):
            self._root = _factor(t.sub, t.diag, t.super, PIVOT_RTOL * scale,
                                 scale)
        self.size = t.size
        self.block_rows = self._root.block_rows

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve T x = b."""
        b = np.asarray(b, dtype=complex)
        if b.shape != (self.size,):
            raise ValueError("right-hand side has wrong length")
        return self._root.solve(b)


def condition_estimate(mats) -> np.ndarray:
    """1-norm condition numbers ||A_k||_1 ||A_k^-1||_1, shape (K,).

    The inverses are solves against the identity on one DenseLU of the whole
    (K, n, n) stack: exact up to round-off, and at the coupling dimension
    no dearer than an estimator.
    """
    mats = np.asarray(mats, dtype=complex)
    inv = DenseLU(mats).solve(
        np.broadcast_to(np.eye(mats.shape[1], dtype=complex), mats.shape))
    norm_a = np.max(np.sum(np.abs(mats), axis=1), axis=1)
    norm_inv = np.max(np.sum(np.abs(inv), axis=1), axis=1)
    return norm_a * norm_inv
