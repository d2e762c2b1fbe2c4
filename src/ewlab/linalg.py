"""Dense and tridiagonal linear algebra behind the solver paths.

Everything is hand-written, with no LAPACK/BLAS calls: every product and
sum is an elementwise numpy ufunc or a Python loop, over arrays or Python
complex numbers, in a fixed order, so the solves are bitwise reproducible
across runs and BLAS thread counts, and the error contract
(SingularMatrixError at a relative pivot threshold) is part of the API.
Sizes are modest: dense systems are the coupling dimension (n <= ~50),
tridiagonal systems are discretization grids (up to ~10^6).

There is one dense LU, `DenseLU`, over a (K, n, n) stack vectorized across
the stack index (one system per radius; a single matrix is K = 1), stored
batch-last so that each elimination step is one numpy loop over all K
systems, in its dtype. The right-hand sides ride through the elimination
as extra columns, so a solve is back substitution alone; the factors also
give determinants. `batched_solve` is the one-shot factor-and-solve.
`sum_rows` adds rows in order, the one written order of every sum over j.

There is one tridiagonal LU, `TridiagonalLU`, a partitioned (SPIKE) LU:
the rows are cut into blocks of about 50, all blocks are eliminated in
lockstep with one numpy operation per row position, and the rows between
blocks solve a smaller tridiagonal system by a scalar banded LU on Python
complex numbers.

Dense systems A + G(r) are non-Hermitian whenever the couplings are complex,
and tridiagonal shifts can sit close to discrete eigenvalues, so partial
pivoting is used everywhere; inside each tridiagonal block the elimination
carries the usual one extra superdiagonal of fill plus a swap flag per step.
A row position where no block swaps takes the plain step, without the
selects and the fill term, in the factor and in the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot

import numpy as np

__all__ = [
    "ComplexTridiagonal",
    "DenseLU",
    "PIVOT_RTOL",
    "SingularMatrixError",
    "TridiagonalLU",
    "batched_solve",
    "sum_rows",
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
    """LU with partial pivoting of a (K, n, n) stack A plus an optional
    diagonal D, carrying (K, n, m) right-hand sides B through the elimination.

    P_k [A_k + D | B_k] = L_k [U_k | Y_k]: B takes A's row swaps and Schur
    updates, so `solve` is back substitution alone. `lu` holds unit lower
    L_k below its diagonal and U_k on and above. Each pivot magnitude found
    by the search is tested against its row's scale, taken from the input.

    [A + D | B] is one batch-last (n, n + m, K) copy in their common dtype,
    a run of contiguous copies when A and B are transposed views of
    radius-last stacks, as the kernel's and sample_grid's are: entry (i, j)
    of every system is a run of K values, so each pivot search,
    swap, multiplier and row update is one numpy loop over the stack. Each
    element takes the operations of a system-by-system elimination in the
    same order. The pivot search takes np.max over the stack and argmax
    only over the systems whose row k falls short of it, usually none; max
    and argmax are exact, and a tie keeps the first row. Every product runs
    along the batch axis (strides pick numpy's complex multiply loop, and
    not all round alike); back substitution adds u_kj x_j by `sum_rows`;
    `det` multiplies the pivots of a contiguous copy. A real x / y is
    x * (1/y), as complex division computes it at zero imaginary part, so
    a real stack gives the real part of its complex cast, bitwise.
    """

    def __init__(self, mats, rhs=None, diag=None) -> None:
        mats = np.asarray(mats)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("mats must have shape (K, n, n)")
        nbatch, n = mats.shape[0], mats.shape[1]
        rhs = np.empty((nbatch, n, 0)) if rhs is None else np.asarray(rhs)
        dtype = np.result_type(mats, rhs, float if diag is None else diag, float)
        lu = np.empty((n, n + rhs.shape[2], nbatch), dtype=dtype)
        lu[:, :n] = mats.transpose(1, 2, 0)
        if diag is not None:
            diagonal = np.einsum("iik->ik", lu[:, :n])  # a writeable view
            diagonal += np.asarray(diag)[:, None]
        lu[:, n:] = rhs.transpose(1, 2, 0)
        # row by row: np.abs of the whole stack would be a second stack
        scale = np.array([np.max(np.abs(row), axis=0) for row in lu[:, :n]])
        swaps = np.zeros(nbatch, dtype=int)
        for k in range(n):
            size = np.abs(lu[k:, k])
            pivot = np.max(size, axis=0)  # |lu[k, k]| once the rows swap
            # the systems whose row k is not a largest entry (NaN is not)
            # swap it with the first largest: argmax only over those few
            moved = np.flatnonzero(~(size[0] >= pivot))
            if moved.size:
                rows = k + np.argmax(size[:, moved], axis=0)
                for block in (lu, scale):
                    top = block[k, ..., moved]
                    block[k, ..., moved] = block[rows, ..., moved]
                    block[rows, ..., moved] = top
                swaps[moved] += 1
            bad = ~(pivot > PIVOT_RTOL * scale[k])  # NaN is bad
            if np.any(bad):
                first = int(np.argmax(bad))
                raise SingularMatrixError(f"pivot {k} below threshold in batch "
                                          f"entry {first}", entry=first)
            lu[k + 1:, k] = _divide(lu[k + 1:, k], lu[k, k])
            # row by row, not via a stack-sized temporary; the multiplier is
            # (1, K): at K = 1 a (K,) one takes a scalar loop that rounds apart
            for i in range(k + 1, n):
                lu[i, k + 1:] -= lu[i:i + 1, k] * lu[k, k + 1:]
        self._factors = lu
        self.lu = lu[:, :n].transpose(2, 0, 1)
        self.swaps = swaps

    def solve(self) -> np.ndarray:
        """x_k with (A_k + D) x_k = B_k, shape (K, n, m), in a fresh array:
        back substitution U_k x_k = Y_k of the carried right-hand sides."""
        lu = self._factors
        n = lu.shape[0]
        y = lu[:, n:]
        x = np.empty(y.shape, dtype=lu.dtype)
        for k in range(n - 1, -1, -1):
            terms = lu[k, k + 1:n, None] * x[k + 1:]
            x[k] = _divide(y[k] - sum_rows(terms), lu[k, k])
        return x.transpose(2, 0, 1)

    def det(self) -> np.ndarray:
        """det A_k = (pivot parity) * prod(diag U_k), shape (K,)."""
        sign = np.where(self.swaps % 2 == 0, 1.0, -1.0)
        # along the strided axis of a batch-last view, np.prod takes another
        # loop and rounds differently; a contiguous copy keeps the bits
        pivots = np.diagonal(self.lu, axis1=1, axis2=2).copy()
        return sign * np.prod(pivots, axis=1)


def _divide(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x / y if np.iscomplexobj(x) or np.iscomplexobj(y) else x * (1.0 / y)


def sum_rows(rows):
    """The rows added in order to +0.0, first to last (0.0 for none): over a
    radius-last stack, a sum over j whose bits no layout or loop can move."""
    total = 0.0
    for row in rows:
        total = total + row
    return total


def batched_solve(mats: np.ndarray, rhs: np.ndarray, diag=None) -> np.ndarray:
    """One-shot (A_k + D) x_k = b_k; shapes as in DenseLU, D = diag(diag)."""
    return DenseLU(mats, rhs, diag).solve()


@dataclass(frozen=True, eq=False)
class ComplexTridiagonal:
    """Tridiagonal matrix as three bands: sub (K-1), diag (K), super (K-1)."""

    sub: np.ndarray
    diag: np.ndarray
    super: np.ndarray

    def __post_init__(self) -> None:
        for band in ("sub", "diag", "super"):
            object.__setattr__(self, band, np.asarray(getattr(self, band),
                                                      dtype=complex))
        k = self.diag.size
        if k == 0:
            raise ValueError("empty tridiagonal matrix")
        if self.sub.size != k - 1 or self.super.size != k - 1:
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

    pivoted[i] says whether any block swapped at step i. Where none did,
    the factor and the solve take the plain step, without np.where selects,
    and back substitution drops the du2[i] term, which is zero in every
    block. The bits are those of the selecting step, except that a -0 in
    the right-hand side can flip the sign of a zero in the solution.
    """

    def __init__(self, dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> None:
        m, nblk = d.shape
        dl, d, du = dl.copy(), d.copy(), du.copy()
        du2 = np.zeros((max(m - 2, 0), nblk), dtype=complex)
        swap = np.zeros((max(m - 1, 0), nblk), dtype=bool)
        pivoted = []
        for i in range(m - 1):
            s = np.abs(d[i]) < np.abs(dl[i])
            pivoted.append(bool(s.any()))
            if not pivoted[i]:  # what the selects below do at s all False
                dl[i] = dl[i] / d[i]
                d[i + 1] -= dl[i] * du[i]
                continue
            piv = np.where(s, dl[i], d[i])
            fact = np.where(s, d[i], dl[i]) / piv
            top = np.where(s, d[i + 1], du[i])
            d[i + 1] = np.where(s, du[i], d[i + 1]) - fact * top
            if i < m - 2:
                du2[i] = np.where(s, du[i + 1], 0.0)
                du[i + 1] = np.where(s, -fact * du[i + 1], du[i + 1])
            d[i], du[i], dl[i], swap[i] = piv, top, fact, s
        self.dl, self.d, self.du, self.du2, self.swap = dl, d, du, du2, swap
        self.pivoted = pivoted

    def solve(self, x: np.ndarray) -> np.ndarray:
        """Overwrite x, shape (m, ..., P), with the solves of its blocks."""
        dl, d, du, du2, swap = self.dl, self.d, self.du, self.du2, self.swap
        pivoted = self.pivoted
        m = d.shape[0]
        for i in range(m - 1):
            if pivoted[i]:
                top = np.where(swap[i], x[i + 1], x[i])
                x[i + 1] = np.where(swap[i], x[i], x[i + 1]) - dl[i] * top
                x[i] = top
            else:
                x[i + 1] -= dl[i] * x[i]
        x[m - 1] /= d[m - 1]
        if m > 1:
            x[m - 2] = (x[m - 2] - du[m - 2] * x[m - 1]) / d[m - 2]
        for i in range(m - 3, -1, -1):
            if pivoted[i]:
                x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
            else:  # du2[i] is zero in every block
                x[i] = (x[i] - du[i] * x[i + 1]) / d[i]
        return x


class _ScalarLU:
    """_BlockLU's elimination of one tridiagonal matrix on Python complex
    numbers, row by row. Every pivot, swapped or not, is tested against
    `limit` before it divides (NaN fails); a failing one raises
    SingularMatrixError naming its row. Magnitudes are hypot(re, im)
    because abs() raises OverflowError past the float range.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 limit: float) -> None:
        # zero-padded dl and du: row K-1 cannot swap, and no row is special
        dl, d, du = sub.tolist() + [0j], diag.tolist(), sup.tolist() + [0j]
        k = len(d)
        du2, swap = [0j] * k, [False] * k
        for i in range(k):
            size = hypot(d[i].real, d[i].imag)
            below = hypot(dl[i].real, dl[i].imag)
            swap[i] = size < below
            if not (below if swap[i] else size) > limit:  # NaN is small
                raise SingularMatrixError(f"pivot {i} below threshold")
            if swap[i]:
                fact, top = d[i] / dl[i], d[i + 1]
                d[i], d[i + 1] = dl[i], du[i] - fact * top
                du[i], dl[i] = top, fact
                du2[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            elif i < k - 1:
                dl[i] /= d[i]
                d[i + 1] -= dl[i] * du[i]
        self.dl, self.d, self.du, self.du2, self.swap = dl, d, du, du2, swap
        self.block_rows = k  # one block holding every row

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with T x = b, in a fresh array."""
        dl, d, du, du2, swap = self.dl, self.d, self.du, self.du2, self.swap
        k = len(d)
        x = b.tolist() + [0j, 0j]
        for i in range(k - 1):
            if swap[i]:
                x[i], x[i + 1] = x[i + 1], x[i] - dl[i] * x[i + 1]
            else:
                x[i + 1] -= dl[i] * x[i]
        for i in range(k - 1, -1, -1):
            x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
        return np.array(x[:k], dtype=complex)


class _SplitRejected(Exception):
    """A split into blocks failed its pivot or spike bound; try the next."""


class _Partition:
    """T x = b as P >= 2 blocks of m rows with one separator row after each.

    Row q of T is row q % (m+1) of block q // (m+1), or that block's
    separator when q % (m+1) == m; rows past the end of T pad the last
    block with `pad` on the diagonal and no coupling. Arrays are stored
    (m+1, P), one column per block. With the block solves of the couplings
    to the neighbouring separators, left = T_p^-1 sub e_1 and right =
    T_p^-1 super e_m (the spikes, solved as one (m, 2, P) stack), block p
    of x is T_p^-1 b_p - left y_(p-1) - right y_p, and the separator values
    y solve a tridiagonal Schur complement of size P-1, factored by
    _ScalarLU: with a few hundred separator rows, lockstep blocks of it
    would each do almost no work per numpy call.

    Raises _SplitRejected when a block pivot or a pivot of the Schur
    complement is at or below `limit`, or a spike entry exceeds
    SPIKE_BOUND: a block whose own Dirichlet problem resonates makes the
    spikes large, and they multiply the separator values' rounding errors
    into x.
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
        if not np.all(np.abs(lu.d) > limit):  # NaN pivots count as small
            raise _SplitRejected
        spikes = np.zeros((m, 2, nblk), dtype=complex)
        spikes[0, 0] = lo[0]
        spikes[m - 1, 1] = up[m - 1]
        lu.solve(spikes)
        # written so that NaN spikes are rejected too
        if not np.max(np.abs(spikes)) <= SPIKE_BOUND:
            raise _SplitRejected
        self.size, self.block_rows, self.lu = k, m, lu
        self.left, self.right = left, right = spikes[:, 0], spikes[:, 1]
        self.gamma, self.delta = gamma, delta = lo[m, :-1], up[m, :-1]
        try:
            self.reduced = _ScalarLU(
                -gamma[1:] * left[m - 1, 1:-1],
                dg[m, :-1] - gamma * right[m - 1, :-1] - delta * left[0, 1:],
                -delta[:-1] * right[0, 1:-1], limit)
        except SingularMatrixError:
            raise _SplitRejected from None

    def solve(self, b: np.ndarray) -> np.ndarray:
        m, nblk = self.lu.d.shape
        x = np.zeros(nblk * (m + 1), dtype=complex)
        x[:self.size] = b
        x = np.ascontiguousarray(x.reshape(nblk, m + 1).T)
        g = self.lu.solve(x[:m])
        y = self.reduced.solve(x[m, :-1] - self.gamma * g[m - 1, :-1]
                               - self.delta * g[0, 1:])
        g[:, 1:] -= self.left[:, 1:] * y
        g[:, :-1] -= self.right[:, :-1] * y
        x[m, :-1] = y
        return x.T.ravel()[:self.size]


def _factor(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
            limit: float, pad: float) -> _Partition | _ScalarLU:
    """The first split of BLOCK_ROWS passing its bounds, else _ScalarLU."""
    for m in BLOCK_ROWS:
        if m < diag.size:
            try:
                return _Partition(sub, diag, sup, m, limit, pad)
            except _SplitRejected:
                pass
    return _ScalarLU(sub, diag, sup, limit)


class TridiagonalLU:
    """Partitioned LU with partial pivoting inside each block.

    The rows are cut into blocks of BLOCK_ROWS[0] rows with one separator
    row between neighbours; all blocks are factored in lockstep, one numpy
    operation per row position over the vector of blocks, and the separator
    unknowns solve a tridiagonal Schur complement by a scalar banded LU.
    This is the SPIKE scheme (Polizzi & Sameh, Parallel Computing 32, 2006)
    with the pivoting inside blocks of Chang, Stratton & Hwu (SC 2012).

    A split is rejected when a pivot of its blocks or of its Schur
    complement falls to the singularity threshold or a spike entry
    |coupling * T_p^-1| exceeds SPIKE_BOUND; the next length of BLOCK_ROWS
    is tried, and the last resort is the scalar LU of every row, the only
    one to raise SingularMatrixError, at PIVOT_RTOL of the largest band
    entry of T, naming the row of T. `block_rows` is the block length in
    use, K for the last resort.
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
