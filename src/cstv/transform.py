"""Orthonormal 2D DCT-II, its inverse, and zig-zag coefficient ordering.

Images and spectra are plain square float arrays, float64 or float32, and
a transform returns its input's dtype.  It is computed as separable matrix
products against a cosine basis C; one cache per side and dtype keeps only
the matrices that side's products take.  Orthonormal scaling makes the
transform an isometry, so overwriting coefficients is an exact Euclidean
projection in image space.

At even sides of SPLIT_MIN_SIDE and up, each pass of the separable product
uses the even/odd split of the basis (Chen, Smith & Fralick 1977; Makhoul
1980): C[k, n-1-i] = (-1)^k C[k, i], so the even rows of C x need only the
sum of x's mirrored halves and the odd rows only their difference, each
against an h x h half of the basis (h = n/2).  A DCT pair then costs 4 n^3
flops in place of 8 n^3, plus elementwise folds, which cost more than the
saving below that side.  Smaller and odd sides take the dense product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Array = np.ndarray

SPLIT_MIN_SIDE = 128
"""The smallest even side whose transforms use the even/odd split."""


def _dct_basis(n: int, dtype: np.dtype = np.dtype(np.float64)) -> Array:
    """Orthonormal DCT-II basis matrix C with C @ C.T == I, computed in
    float64 and rounded to dtype."""
    k = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(n, dtype=np.float64)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * (2.0 * i + 1.0) * k / (2.0 * n))
    basis[0, :] /= np.sqrt(2.0)
    return basis.astype(dtype, copy=False)


@lru_cache(maxsize=None)
def _factors(n: int, dtype: np.dtype) -> tuple[Array, Array]:
    """The read-only pair side n's transforms multiply by: at even sides of
    SPLIT_MIN_SIDE and up the halves C[0::2, :n/2] and C[1::2, :n/2], else C
    and C.T, C-contiguous: matmul takes it faster than the view on the right."""
    c = _dct_basis(n, dtype)
    if n % 2 == 0 and n >= SPLIT_MIN_SIDE:
        pair = tuple(np.ascontiguousarray(c[parity::2, : n // 2]) for parity in (0, 1))
    else:
        pair = (c, np.ascontiguousarray(c.T))
    for factor in pair:
        factor.setflags(write=False)
    return pair


def _fold_pass(a: Array, halves: tuple[Array, Array], fold: Array, out: Array) -> None:
    """out = C @ a.T.  Column i of a and its mirror n-1-i enter the even rows
    of the product as their sum and the odd rows as their difference; fold
    is a (2, n, n/2) array that holds the two."""
    h = a.shape[0] // 2
    left, mirror = a[:, :h], a[:, ::-1][:, :h]
    for parity, half in enumerate(halves):
        (np.add, np.subtract)[parity](left, mirror, out=fold[parity])
        np.matmul(half, fold[parity].T, out=out[parity::2])


def _unfold_pass(a: Array, halves: tuple[Array, Array], fold: Array, out: Array) -> None:
    """out = a.T @ C, the inverse of :func:`_fold_pass`.  fold, a (2, n, n/2)
    array, receives the even and the odd rows' shares of out's left half:
    their sum is that half, their difference its mirror image."""
    h = a.shape[0] // 2
    for parity, half in enumerate(halves):
        np.matmul(a[parity::2].T, half, out=fold[parity])
    np.add(fold[0], fold[1], out=out[:, :h])
    np.subtract(fold[0], fold[1], out=out[:, ::-1][:, :h])


def _two_passes(one_pass, a: Array, halves: tuple[Array, Array], out: Array | None, work) -> Array:
    """one_pass, :func:`_fold_pass` or :func:`_unfold_pass`, over a and then
    over its result, written to out."""
    n = a.shape[0]
    out = np.empty((n, n), a.dtype) if out is None else out
    fold, between = np.empty((2, n, n), a.dtype) if work is None else work
    # the first pass reads all of a, so the second may overwrite it
    fold = fold.reshape(2, n, n // 2)
    one_pass(a, halves, fold, between)
    one_pass(between, halves, fold, out)
    return out


def _dct2(x: Array, out: Array | None = None, work=None) -> Array:
    """C @ x @ C.T in x's dtype, written to out, which may be x.  work, an
    optional pair of n x n scratch arrays apart from x and out (or one
    (2, n, n) array), holds C @ x, or the split's folds and first pass."""
    factors = _factors(x.shape[0], x.dtype)
    if factors[0].shape != x.shape:
        return _two_passes(_fold_pass, x, factors, out, work)
    return np.matmul(np.matmul(factors[0], x, out=None if work is None else work[0]), factors[1], out=out)


def _idct2(y: Array, out: Array | None = None, work=None) -> Array:
    """C.T @ y @ C in y's dtype, written to out, which may be y.  work is
    as :func:`_dct2` takes it, and holds C.T @ y, or the split's folds and
    first pass."""
    factors = _factors(y.shape[0], y.dtype)
    if factors[0].shape != y.shape:
        return _two_passes(_unfold_pass, y, factors, out, work)
    return np.matmul(np.matmul(factors[0].T, y, out=None if work is None else work[0]), factors[0], out=out)


@dataclass(frozen=True, eq=False)
class ZigZagOrder:
    """Bijection rank -> (rows[rank], cols[rank]) along anti-diagonals, JPEG style.

    Even diagonals (row + col even) run bottom-left to top-right, odd ones
    top-right to bottom-left; rank 0 is always (0, 0).  Equality is identity.
    """

    rows: Array
    cols: Array


def zigzag_order(side: int) -> ZigZagOrder:
    """Enumerate all side^2 positions in zig-zag rank order."""
    if side < 1:
        raise ValueError("side must be >= 1")
    rows, cols = np.divmod(np.arange(side * side, dtype=np.intp), side)
    diag = rows + cols
    # by diagonal, then down the odd diagonals and up the even ones
    rank_to_flat = np.lexsort((np.where(diag % 2 == 1, rows, -rows), diag))
    rows, cols = rows[rank_to_flat], cols[rank_to_flat]
    rows.setflags(write=False)
    cols.setflags(write=False)
    return ZigZagOrder(rows=rows, cols=cols)
