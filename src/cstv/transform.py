"""Orthonormal 2D DCT-II, its inverse, and zig-zag coefficient ordering.

Images and spectra are plain square float64 arrays.  The transform is
computed as separable matrix products against a cached cosine basis.
Orthonormal scaling makes the transform an isometry, so overwriting
coefficients is an exact Euclidean projection in image space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Array = np.ndarray


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


def _dct2(x: Array, out: Array | None = None, work: Array | None = None) -> Array:
    """C @ x @ C.T, written to out; work, if given, holds C @ x."""
    n = x.shape[0]
    return np.matmul(np.matmul(_dct_basis(n), x, out=work), _dct_basis_t(n), out=out)


def _idct2(y: Array, out: Array | None = None, work: Array | None = None) -> Array:
    """C.T @ y @ C, written to out; work, if given, holds C.T @ y."""
    c = _dct_basis(y.shape[0])
    return np.matmul(np.matmul(c.T, y, out=work), c, out=out)


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


def dct2_forward(image: Array) -> Array:
    """Separable orthonormal 2D DCT-II of the image, as a coefficient array."""
    return _dct2(image)
