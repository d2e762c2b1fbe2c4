"""Dense and tridiagonal complex linear algebra behind the solver paths.

Everything is hand-written on plain numpy arrays, with no LAPACK/BLAS calls:
every product and sum is an elementwise ufunc or a Python loop in a fixed
order, so the solves are bitwise reproducible across runs and BLAS thread
counts, and the error contract (SingularMatrixError at a relative pivot
threshold) is part of the API. Sizes are modest: dense systems are the
coupling dimension (n <= ~50), tridiagonal systems are discretization grids
(up to ~10^6).

There is one dense LU, `DenseLU`, over a (K, n, n) stack vectorized across
the stack index (one system per radius; a single matrix is K = 1). Its
factors serve solves, determinants and the exact 1-norm condition number;
`batched_solve` is the one-shot factor-and-solve.

Dense systems A + G(r) are non-Hermitian whenever the couplings are complex,
and tridiagonal shifts can sit close to discrete eigenvalues, so partial
pivoting is used everywhere; the tridiagonal factorization carries the usual
one extra superdiagonal of fill plus a swap flag per step.
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
    "tridiag_solve",
]

# A pivot at or below this times the row scale counts as singular.
PIVOT_RTOL = 1e-14


class SingularMatrixError(ArithmeticError):
    """A pivot fell below the relative threshold during elimination."""


class DenseLU:
    """LU factorization with partial pivoting of a stack of square matrices.

    P_k A_k = L_k U_k for every k of a (K, n, n) stack, with unit lower
    triangular L_k stored below the diagonal of `lu` and U_k on and above
    it; perm[k] lists the rows of A_k in pivot order. Row scales are taken
    from the input and swapped along with the rows, so the singularity test
    is relative to the data, not absolute.
    """

    def __init__(self, mats) -> None:
        lu = np.array(mats, dtype=complex)
        if lu.ndim != 3 or lu.shape[1] != lu.shape[2]:
            raise ValueError("mats must have shape (K, n, n)")
        nbatch, n = lu.shape[0], lu.shape[1]
        scale = np.max(np.abs(lu), axis=2)
        rows = np.arange(nbatch)
        perm = np.tile(np.arange(n), (nbatch, 1))
        swaps = np.zeros(nbatch, dtype=int)
        for k in range(n):
            p = k + np.argmax(np.abs(lu[:, k:, k]), axis=1)
            bad = np.abs(lu[rows, p, k]) <= PIVOT_RTOL * scale[rows, p]
            if np.any(bad):
                first = int(np.argmax(bad))
                raise SingularMatrixError(
                    f"pivot {k} below threshold in batch entry {first}"
                )
            # swap rows k and p in every system; p == k entries are no-ops
            for block in (lu, scale, perm):
                tmp = block[rows, k].copy()
                block[rows, k] = block[rows, p]
                block[rows, p] = tmp
            swaps += p != k
            lu[:, k + 1:, k] /= lu[:, k, k][:, None]
            lu[:, k + 1:, k + 1:] -= (lu[:, k + 1:, k, None]
                                      * lu[:, k, None, k + 1:])
        self.lu = lu
        self.perm = perm
        self.swaps = swaps

    def solve(self, b) -> np.ndarray:
        """Solve A_k x_k = b_k for right-hand sides b of shape (K, n, m)."""
        lu = self.lu
        n = lu.shape[1]
        y = np.asarray(b, dtype=complex)[np.arange(lu.shape[0])[:, None],
                                         self.perm]
        for k in range(n):
            y[:, k + 1:, :] -= lu[:, k + 1:, k, None] * y[:, k, None, :]
        for k in range(n - 1, -1, -1):
            acc = y[:, k, :] - np.sum(lu[:, k, k + 1:, None] * y[:, k + 1:, :],
                                      axis=1)
            y[:, k, :] = acc / lu[:, k, k][:, None]
        return y

    def det(self) -> np.ndarray:
        """det A_k = (pivot parity) * prod(diag U_k), shape (K,)."""
        sign = np.where(self.swaps % 2 == 0, 1.0, -1.0)
        return sign * np.prod(np.diagonal(self.lu, axis1=1, axis2=2), axis=1)


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

    def dense(self) -> np.ndarray:
        """Dense counterpart; only sensible for small K (tests, cross-checks)."""
        k = self.size
        out = np.zeros((k, k), dtype=complex)
        out[np.arange(k), np.arange(k)] = self.diag
        out[np.arange(1, k), np.arange(k - 1)] = self.sub
        out[np.arange(k - 1), np.arange(1, k)] = self.super
        return out


class TridiagonalLU:
    """Banded LU with partial pivoting; fill is one extra superdiagonal.

    Step i either eliminates sub[i] in place (no swap) or exchanges rows i
    and i+1 first, which moves a super entry into the du2 band. swap[i]
    records the choice so the solve can replay the permutation. Python-list
    inner loops: numpy scalar indexing is several times slower here.
    """

    def __init__(self, t: ComplexTridiagonal) -> None:
        k = t.size
        dl = [complex(z) for z in t.sub]
        d = [complex(z) for z in t.diag]
        du = [complex(z) for z in t.super]
        du2 = [0j] * max(k - 2, 0)
        swap = [False] * max(k - 1, 0)
        scale = float(np.max(np.abs(t.diag)))
        if k > 1:
            scale = max(scale, float(np.max(np.abs(t.sub))),
                        float(np.max(np.abs(t.super))))
        limit = PIVOT_RTOL * scale
        for i in range(k - 1):
            if abs(d[i]) >= abs(dl[i]):
                if abs(d[i]) <= limit:
                    raise SingularMatrixError(f"pivot {i} below threshold")
                fact = dl[i] / d[i]
                dl[i] = fact
                d[i + 1] -= fact * du[i]
            else:
                fact = d[i] / dl[i]
                d[i] = dl[i]
                dl[i] = fact
                tmp = du[i]
                du[i] = d[i + 1]
                d[i + 1] = tmp - fact * d[i + 1]
                if i < k - 2:
                    du2[i] = du[i + 1]
                    du[i + 1] = -fact * du[i + 1]
                swap[i] = True
        if abs(d[k - 1]) <= limit:
            raise SingularMatrixError(f"pivot {k - 1} below threshold")
        self.size = k
        self._dl = dl
        self._d = d
        self._du = du
        self._du2 = du2
        self._swap = swap

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve T x = b."""
        k = self.size
        b = np.asarray(b, dtype=complex)
        if b.shape != (k,):
            raise ValueError("right-hand side has wrong length")
        x = [complex(z) for z in b]
        dl, d, du, du2, swap = self._dl, self._d, self._du, self._du2, self._swap
        for i in range(k - 1):
            if swap[i]:
                x[i], x[i + 1] = x[i + 1], x[i] - dl[i] * x[i + 1]
            else:
                x[i + 1] -= dl[i] * x[i]
        x[k - 1] /= d[k - 1]
        if k > 1:
            x[k - 2] = (x[k - 2] - du[k - 2] * x[k - 1]) / d[k - 2]
        for i in range(k - 3, -1, -1):
            x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
        return np.asarray(x, dtype=complex)


def tridiag_solve(t: ComplexTridiagonal, b: np.ndarray) -> np.ndarray:
    """One-shot solve T x = b via TridiagonalLU."""
    return TridiagonalLU(t).solve(b)


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
