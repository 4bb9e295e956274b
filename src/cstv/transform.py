"""Orthonormal 2D DCT-II, its inverse, and zig-zag coefficient ordering.

Images and spectra are plain square float64 arrays.  The transform is
computed as separable matrix products against a cached cosine basis C.
Orthonormal scaling makes the transform an isometry, so overwriting
coefficients is an exact Euclidean projection in image space.

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
def _dct_basis(n: int) -> Array:
    """Orthonormal DCT-II basis matrix C with C @ C.T == I."""
    k = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(n, dtype=np.float64)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * (2.0 * i + 1.0) * k / (2.0 * n))
    basis[0, :] /= np.sqrt(2.0)
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=None)
def _dct_basis_t(n: int) -> Array:
    """C.T, C-contiguous: matmul takes it faster than the view as a right operand."""
    basis_t = np.ascontiguousarray(_dct_basis(n).T)
    basis_t.setflags(write=False)
    return basis_t


@lru_cache(maxsize=None)
def _half_bases(n: int) -> tuple[Array, Array]:
    """The left halves C[0::2, :n/2] and C[1::2, :n/2] of the even and odd rows of C."""
    halves = tuple(np.ascontiguousarray(_dct_basis(n)[parity::2, : n // 2]) for parity in (0, 1))
    for half in halves:
        half.setflags(write=False)
    return halves


def _fold_pass(a: Array, fold: Array, out: Array) -> None:
    """out = C @ a.T.  Column i of a and its mirror n-1-i enter the even
    rows of the product as their sum and the odd rows as their difference;
    fold is a (2, n, n/2) array that holds the two."""
    h = a.shape[0] // 2
    left, mirror = a[:, :h], a[:, ::-1][:, :h]
    np.add(left, mirror, out=fold[0])
    np.subtract(left, mirror, out=fold[1])
    for parity, half in enumerate(_half_bases(2 * h)):
        np.matmul(half, fold[parity].T, out=out[parity::2])


def _unfold_pass(a: Array, fold: Array, out: Array) -> None:
    """out = a.T @ C, the inverse of :func:`_fold_pass`.  fold, a (2, n, n/2)
    array, receives the even and the odd rows' shares of out's left half:
    their sum is that half, their difference its mirror image."""
    h = a.shape[0] // 2
    for parity, half in enumerate(_half_bases(2 * h)):
        np.matmul(a[parity::2].T, half, out=fold[parity])
    np.add(fold[0], fold[1], out=out[:, :h])
    np.subtract(fold[0], fold[1], out=out[:, ::-1][:, :h])


def _two_passes(one_pass, a: Array, out: Array | None, work: Array | None) -> Array:
    """one_pass(one_pass(a)), through work[1]: C @ (C @ a.T).T = C @ a @ C.T
    for :func:`_fold_pass`, and (a.T @ C).T @ C = C.T @ a @ C for its inverse."""
    n = a.shape[0]
    out = np.empty((n, n)) if out is None else out
    work = np.empty((2, n, n)) if work is None else work
    fold = work[0].reshape(2, n, n // 2)
    one_pass(a, fold, work[1])
    one_pass(work[1], fold, out)
    return out


def _dct2(x: Array, out: Array | None = None, work: Array | None = None) -> Array:
    """C @ x @ C.T, written to out.  work, if given, holds two n x n scratch
    arrays (a (2, n, n) array or a pair): the dense product keeps C @ x in
    work[0], the split one its folds in work[0] and C @ x.T in work[1]."""
    n = x.shape[0]
    if n % 2 or n < SPLIT_MIN_SIDE:
        c_x = np.matmul(_dct_basis(n), x, out=None if work is None else work[0])
        return np.matmul(c_x, _dct_basis_t(n), out=out)
    return _two_passes(_fold_pass, x, out, work)


def _idct2(y: Array, out: Array | None = None, work: Array | None = None) -> Array:
    """C.T @ y @ C, written to out.  work, if given, holds two n x n scratch
    arrays (a (2, n, n) array or a pair): the dense product keeps C.T @ y in
    work[0], the split one its folds in work[0] and y.T @ C in work[1]."""
    n = y.shape[0]
    if n % 2 or n < SPLIT_MIN_SIDE:
        c = _dct_basis(n)
        return np.matmul(np.matmul(c.T, y, out=None if work is None else work[0]), c, out=out)
    return _two_passes(_unfold_pass, y, out, work)


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
