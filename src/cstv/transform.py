"""Orthonormal 2D DCT-II, its inverse, and zig-zag coefficient ordering.

Images and spectra are plain square float arrays, float64 or float32, and
a transform returns its input's dtype.  It is computed as separable matrix
products against a cosine basis C, cached per side and dtype.  Orthonormal
scaling makes the transform an isometry, so overwriting coefficients is an
exact Euclidean projection in image space.

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


@lru_cache(maxsize=None)
def _dct_basis(n: int, dtype: np.dtype = np.dtype(np.float64)) -> Array:
    """Orthonormal DCT-II basis matrix C with C @ C.T == I, computed in
    float64 and rounded to dtype."""
    k = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(n, dtype=np.float64)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * (2.0 * i + 1.0) * k / (2.0 * n))
    basis[0, :] /= np.sqrt(2.0)
    basis = basis.astype(dtype, copy=False)
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=None)
def _dct_basis_t(n: int, dtype: np.dtype = np.dtype(np.float64)) -> Array:
    """C.T, C-contiguous: matmul takes it faster than the view as a right operand."""
    basis_t = np.ascontiguousarray(_dct_basis(n, dtype).T)
    basis_t.setflags(write=False)
    return basis_t


@lru_cache(maxsize=None)
def _half_bases(n: int, dtype: np.dtype = np.dtype(np.float64)) -> tuple[Array, Array]:
    """The left halves C[0::2, :n/2] and C[1::2, :n/2] of the even and odd rows of C."""
    halves = tuple(np.ascontiguousarray(_dct_basis(n, dtype)[parity::2, : n // 2]) for parity in (0, 1))
    for half in halves:
        half.setflags(write=False)
    return halves


def _splits(n: int) -> bool:
    """Whether the transforms of side n take the even/odd split."""
    return n % 2 == 0 and n >= SPLIT_MIN_SIDE


def _alone(action=None) -> None:
    """The sync of a thread that works alone: it runs action, if any, at once."""
    if action is not None:
        action()


def _fold_pass(a: Array, fold: Array, out: Array, spectrum: slice) -> None:
    """out = C @ a.T, in the rows ``spectrum`` of out: every row, or one
    parity's.  Column i of a and its mirror n-1-i enter the even rows of the
    product as their sum and the odd rows as their difference; fold is a
    (2, n, n/2) array that holds the two.  All of a is read."""
    n = a.shape[0]
    h = n // 2
    left, mirror = a[:, :h], a[:, ::-1][:, :h]
    for parity in range(2)[spectrum]:  # both parities, or the one that spectrum holds
        (np.add, np.subtract)[parity](left, mirror, out=fold[parity])
        np.matmul(_half_bases(n, a.dtype)[parity], fold[parity].T, out=out[parity::2])


def _unfold_pass(a: Array, fold: Array, out: Array, spectrum: slice, sync) -> None:
    """out = a.T @ C, the inverse of :func:`_fold_pass`, in the rows
    ``spectrum`` of out.  fold, a (2, n, n/2) array, receives the even and
    the odd rows' shares of out's left half, each from the rows of a of a
    parity in ``spectrum``, and sync() waits for both: their sum is that
    half, their difference its mirror image."""
    n = a.shape[0]
    h = n // 2
    for parity in range(2)[spectrum]:
        np.matmul(a[parity::2].T, _half_bases(n, a.dtype)[parity], out=fold[parity])
    sync()
    np.add(fold[0, spectrum], fold[1, spectrum], out=out[spectrum, :h])
    np.subtract(fold[0, spectrum], fold[1, spectrum], out=out[spectrum, ::-1][:, :h])


def _dct2(x: Array, out: Array | None = None, work=None, spectrum: slice = slice(None), sync=_alone) -> Array:
    """C @ x @ C.T in x's dtype, written to out, which may be x.  work, an
    optional sequence of three n x n scratch arrays apart from x and out (or
    one (3, n, n) array), holds C @ x, or the split's folds and first pass.

    Where the transform splits (:func:`_splits`), two threads that share x,
    out and work may each call this once all of x is written, one with
    ``spectrum`` slice(0, None, 2) and one with slice(1, None, 2), and a
    ``sync()`` that waits for both.  A thread computes the products of its
    parity of spectrum rows and writes those rows of out.  The dense
    product runs on one thread."""
    n = x.shape[0]
    if not _splits(n):
        fold = None if work is None else work[0]
        return np.matmul(np.matmul(_dct_basis(n, x.dtype), x, out=fold), _dct_basis_t(n, x.dtype), out=out)
    out = np.empty((n, n), x.dtype) if out is None else out
    fold, between = np.empty((2, n, n), x.dtype) if work is None else work[:2]
    # the first pass reads all of x, so the second may overwrite it
    fold = fold.reshape(2, n, n // 2)
    _fold_pass(x, fold, between, spectrum)
    sync()
    _fold_pass(between, fold, out, spectrum)
    return out


def _idct2(y: Array, out: Array | None = None, work=None, spectrum: slice = slice(None), sync=_alone) -> Array:
    """C.T @ y @ C in y's dtype, written to out, which may be y.  work, an
    optional sequence of three n x n scratch arrays apart from y and out (or
    one (3, n, n) array), holds C.T @ y, or the split's folds and first pass.

    Threads call it as they call :func:`_dct2`, except that a thread needs
    only the rows ``spectrum`` of y to be written, and writes the rows
    ``spectrum`` of out."""
    n = y.shape[0]
    if not _splits(n):
        c = _dct_basis(n, y.dtype)
        return np.matmul(np.matmul(c.T, y, out=None if work is None else work[0]), c, out=out)
    out = np.empty((n, n), y.dtype) if out is None else out
    fold, between, second_fold = np.empty((3, n, n), y.dtype) if work is None else work
    # a thread makes the rows of the first pass that its products in the
    # second read, and those write their own folds, so no sync lies between
    # the passes; all of y is read before the first pass's sync
    _unfold_pass(y, fold.reshape(2, n, n // 2), between, spectrum, sync)
    _unfold_pass(between, second_fold.reshape(2, n, n // 2), out, spectrum, sync)
    return out


@dataclass(frozen=True, eq=False)
class ZigZagOrder:
    """Bijection rank -> (rows[rank], cols[rank]) along anti-diagonals, JPEG style.

    Even diagonals (row + col even) run bottom-left to top-right, odd ones
    top-right to bottom-left; rank 0 is always (0, 0).  Equality is
    identity; :func:`zigzag_order` returns one cached object per side.
    """

    rows: Array
    cols: Array


@lru_cache(maxsize=None)
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
