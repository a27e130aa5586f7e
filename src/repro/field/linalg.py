"""Dense linear algebra over GF(q): solve, inverse, rank, determinant.

All routines use Gauss-Jordan elimination with partial (first-nonzero)
pivoting.  Over a field, any nonzero pivot is exact, so no numerical
pivot-size considerations apply; we simply take the first nonzero entry in
the column.  Row operations are vectorized across columns with numpy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import FieldError, SingularMatrixError
from repro.field.arithmetic import FiniteField


def _eliminate(gf: FiniteField, aug: np.ndarray, ncols: int) -> Tuple[np.ndarray, int, np.ndarray]:
    """Reduce ``aug`` to reduced row-echelon form over GF(q).

    Only the first ``ncols`` columns are treated as pivot candidates; the
    remaining columns ride along (right-hand sides / identity block).

    Returns ``(rref, rank, det)`` where ``det`` is the determinant of the
    leading ``ncols x ncols`` block when the matrix is square and full rank
    (zero otherwise).
    """
    red = gf.reducer
    q64 = np.uint64(gf.q)
    a = aug.copy()
    nrows = a.shape[0]
    det = np.uint64(1)
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        nonzero = np.nonzero(a[pivot_row:, col])[0]
        if nonzero.size == 0:
            det = np.uint64(0)
            continue
        src = pivot_row + int(nonzero[0])
        if src != pivot_row:
            a[[pivot_row, src]] = a[[src, pivot_row]]
            det = red.reduce_semi(q64 - det)  # row swap flips the sign
        pivot = a[pivot_row, col]
        det = red.reduce(det * pivot)
        inv_pivot = gf.inv(pivot)
        a[pivot_row] = red.reduce(a[pivot_row] * inv_pivot)
        # Zero out the column in all other rows in one vectorized pass.
        factors = a[:, col].copy()
        factors[pivot_row] = np.uint64(0)
        rows_to_fix = np.nonzero(factors)[0]
        if rows_to_fix.size:
            update = red.reduce(factors[rows_to_fix, None] * a[pivot_row][None, :])
            a[rows_to_fix] = red.reduce_semi(a[rows_to_fix] + (q64 - update))
        pivot_row += 1
    rank = pivot_row
    if rank < min(nrows, ncols) or nrows != ncols:
        det = np.uint64(0)
    return a, rank, det


def solve(gf: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b (mod q)`` for square invertible ``a``.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    Raises :class:`SingularMatrixError` when ``a`` is singular.
    """
    a = gf._residues(a)
    b = gf._residues(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise FieldError(f"solve requires a square matrix, got {a.shape}")
    vector_rhs = b.ndim == 1
    rhs = b[:, None] if vector_rhs else b
    if rhs.shape[0] != a.shape[0]:
        raise FieldError(f"rhs shape {b.shape} incompatible with {a.shape}")
    aug = np.concatenate([a, rhs], axis=1)
    rref, rank, _ = _eliminate(gf, aug, a.shape[1])
    if rank < a.shape[0]:
        raise SingularMatrixError("matrix is singular over GF(q)")
    x = rref[:, a.shape[1]:]
    return x[:, 0] if vector_rhs else x


def inv(gf: FiniteField, a: np.ndarray) -> np.ndarray:
    """Matrix inverse over GF(q) via Gauss-Jordan on ``[A | I]``."""
    a = gf._residues(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise FieldError(f"inv requires a square matrix, got {a.shape}")
    n = a.shape[0]
    identity = np.eye(n, dtype=np.uint64)
    aug = np.concatenate([a, identity], axis=1)
    rref, rank, _ = _eliminate(gf, aug, n)
    if rank < n:
        raise SingularMatrixError("matrix is singular over GF(q)")
    return rref[:, n:]


def det(gf: FiniteField, a: np.ndarray) -> int:
    """Determinant over GF(q); 0 for singular matrices."""
    a = gf._residues(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise FieldError(f"det requires a square matrix, got {a.shape}")
    _, _, d = _eliminate(gf, a, a.shape[0])
    return int(d)


def rank(gf: FiniteField, a: np.ndarray) -> int:
    """Rank over GF(q)."""
    a = gf._residues(a)
    if a.ndim != 2:
        raise FieldError("rank requires a 2-D matrix")
    _, r, _ = _eliminate(gf, a, a.shape[1])
    return r


def is_invertible(gf: FiniteField, a: np.ndarray) -> bool:
    """True when the square matrix ``a`` is invertible over GF(q)."""
    a = gf._residues(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and rank(gf, a) == a.shape[0]


def is_mds(gf: FiniteField, w: np.ndarray) -> bool:
    """Exhaustively check the MDS property of a U x N matrix (small sizes).

    A matrix is MDS when every U x U column-submatrix is invertible.  The
    check enumerates all ``C(N, U)`` submatrices, so it is intended for
    test-sized matrices only.
    """
    from itertools import combinations

    w = gf._residues(w)
    if w.ndim != 2:
        raise FieldError("is_mds requires a 2-D matrix")
    u, n = w.shape
    if u > n:
        raise FieldError(f"MDS matrix must be wide, got shape {w.shape}")
    return all(
        is_invertible(gf, w[:, list(cols)]) for cols in combinations(range(n), u)
    )
