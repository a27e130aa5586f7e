"""Vandermonde matrices and Lagrange interpolation over GF(q).

These are the algebraic building blocks of the paper's mask encoding
(eq. 5 / eq. 28): a ``U x N`` Vandermonde matrix ``W`` is an MDS generator
(any ``U`` columns are invertible because the evaluation points are
distinct), and decoding from any ``U`` coded symbols is polynomial
interpolation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import FieldError
from repro.field.arithmetic import FiniteField


def distinct_points(gf: FiniteField, count: int, start: int = 1) -> np.ndarray:
    """``count`` distinct nonzero evaluation points ``start, start+1, ...``.

    Raises when the field is too small to supply that many distinct points.
    """
    if count < 0:
        raise FieldError("count must be non-negative")
    if start + count > gf.q:
        raise FieldError(
            f"field of size {gf.q} cannot supply {count} points from {start}"
        )
    return gf.array(np.arange(start, start + count, dtype=np.int64))


def vandermonde(gf: FiniteField, points: Sequence[int], nrows: int) -> np.ndarray:
    """Vandermonde matrix ``V[i, j] = points[j] ** i`` of shape (nrows, len(points)).

    With distinct points, any ``nrows`` columns form an invertible square
    Vandermonde matrix, so the matrix is MDS.
    """
    pts = gf._residues(points)
    if pts.ndim != 1:
        raise FieldError("points must be 1-D")
    if len(set(pts.tolist())) != pts.size:
        raise FieldError("Vandermonde points must be distinct")
    rows = [gf.ones(pts.shape)]
    for _ in range(1, nrows):
        rows.append(gf.mul(rows[-1], pts))
    return np.stack(rows, axis=0)


def _row_products(gf: FiniteField, mat: np.ndarray) -> np.ndarray:
    """Reduced product along axis 1 of a 2-D field array, by pairwise tree.

    Halving the column axis each round turns the naive O(c) sequence of
    per-column multiplies into O(log c) whole-array reducer ops; the
    result is the canonical residue either way.
    """
    prod = mat
    while prod.shape[1] > 1:
        half = prod.shape[1] // 2
        tail = prod[:, 2 * half :]  # zero or one leftover column
        prod = gf.mul(prod[:, : 2 * half : 2], prod[:, 1 : 2 * half : 2])
        if tail.shape[1]:
            prod = np.concatenate([prod, tail], axis=1)
    if prod.shape[1] == 0:
        return np.ones(prod.shape[0], dtype=np.uint64)
    return prod[:, 0]


def _exclusive_products(gf: FiniteField, mat: np.ndarray) -> np.ndarray:
    """``out[:, k] = prod_{l != k} mat[:, l]`` (reduced), zero-safe.

    Prefix/suffix scans replace the O(c**2) per-column Python loops with
    O(c) whole-column reducer ops; unlike the divide-by-total trick this
    stays exact when a column contains zeros (an eval point that
    coincides with a sample point).
    """
    r, c = mat.shape
    if c == 0:
        return np.empty((r, 0), dtype=np.uint64)
    prefix = np.empty((r, c), dtype=np.uint64)
    suffix = np.empty((r, c), dtype=np.uint64)
    prefix[:, 0] = 1
    suffix[:, c - 1] = 1
    for k in range(1, c):
        prefix[:, k] = gf.mul(prefix[:, k - 1], mat[:, k - 1])
        suffix[:, c - 1 - k] = gf.mul(suffix[:, c - k], mat[:, c - k])
    return gf.mul(prefix, suffix)


def lagrange_coeffs(
    gf: FiniteField, sample_points: Sequence[int], eval_points: Sequence[int]
) -> np.ndarray:
    """Lagrange interpolation coefficient matrix ``L`` over GF(q).

    Given samples ``f(sample_points[k])`` of a polynomial with
    ``deg f < len(sample_points)``, the values at ``eval_points`` are
    ``L @ samples`` where ``L[m, k] = prod_{l != k} (e_m - s_l) / (s_k - s_l)``.

    Shape: ``(len(eval_points), len(sample_points))``.
    """
    s = gf._residues(sample_points)
    e = gf._residues(eval_points)
    if s.ndim != 1 or e.ndim != 1:
        raise FieldError("points must be 1-D")
    if len(set(s.tolist())) != s.size:
        raise FieldError("sample points must be distinct")
    u = s.size
    # diffs[k, l] = s_k - s_l ; denominators d_k = prod_{l != k} (s_k - s_l)
    diffs = gf.sub(s[:, None], s[None, :])
    np.fill_diagonal(diffs, np.uint64(1))
    inv_denom = gf.inv(_row_products(gf, diffs))
    # numerators: num[m, k] = prod_{l != k} (e_m - s_l)
    ediffs = gf.sub(e[:, None], s[None, :])  # (m, l)
    return gf.mul(_exclusive_products(gf, ediffs), inv_denom[None, :])


def interpolate(
    gf: FiniteField,
    sample_points: Sequence[int],
    samples: np.ndarray,
    eval_points: Sequence[int],
) -> np.ndarray:
    """Evaluate the interpolating polynomial of ``samples`` at ``eval_points``.

    ``samples`` may be a vector (one value per sample point) or a matrix of
    shape ``(len(sample_points), width)`` interpolating ``width`` polynomials
    simultaneously.
    """
    coeffs = lagrange_coeffs(gf, sample_points, eval_points)
    samples = gf._residues(samples)
    if samples.ndim == 1:
        return gf.matvec(coeffs, samples)
    return gf.matmul(coeffs, samples)
