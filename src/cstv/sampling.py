"""Reproducible random coefficient masks over zig-zag ranks.

A mask is drawn by a partial Fisher-Yates shuffle over all ranks, driven by
numpy's PCG64 generator, so the kept set is a pure function of
(side, ratio, seed).  A useful side effect of the prefix construction: for
a fixed seed, the mask at a higher ratio is a superset of the mask at a
lower ratio.

The dense measurement matrix is never formed; measuring is just gathering
spectrum entries at the kept ranks' positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .transform import zigzag_order

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class MeasurementMask:
    """Kept zig-zag ranks for a side x side spectrum, sorted ascending.

    ``rows`` and ``cols`` are the spectrum positions of the kept ranks, in
    the order of ``kept_ranks``.  How many ranks a ratio keeps is decided
    by :func:`draw_mask`.  Equality is identity.
    """

    side: int
    kept_ranks: Array
    rows: Array = field(init=False, repr=False)
    cols: Array = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ranks = np.asarray(self.kept_ranks, dtype=np.int64)
        n = self.side * self.side
        if ranks.ndim != 1 or ranks.size < 1 or ranks.size > n:
            raise ValueError("kept_ranks must hold between 1 and side^2 ranks")
        if np.any((ranks < 0) | (ranks >= n)):
            raise ValueError("ranks out of range")
        ranks = np.sort(ranks)
        if np.any(ranks[1:] == ranks[:-1]):
            raise ValueError("ranks must be distinct")
        ranks.setflags(write=False)
        object.__setattr__(self, "kept_ranks", ranks)
        order = zigzag_order(self.side)
        for name, positions in (("rows", order.rows[ranks]), ("cols", order.cols[ranks])):
            positions.setflags(write=False)
            object.__setattr__(self, name, positions)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Measured coefficient values, aligned with mask.kept_ranks.

    Equality is identity.
    """

    mask: MeasurementMask
    values: Array

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != self.mask.kept_ranks.shape:
            raise ValueError("values length must match the mask")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def draw_mask(side: int, ratio: float, seed: int) -> MeasurementMask:
    """Draw round(ratio * side^2) distinct ranks uniformly, clamped to >= 1.

    Partial Fisher-Yates over the rank indices, all swap targets drawn in
    one generator call; deterministic in (side, ratio, seed).
    """
    if side < 1:
        raise ValueError("side must be >= 1")
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    n = side * side
    m = min(max(int(round(ratio * n)), 1), n)
    rng = np.random.default_rng(seed)
    # swapping Python ints is faster than swapping numpy scalars
    ranks = list(range(n))
    for i, offset in enumerate(rng.integers(np.arange(n, n - m, -1)).tolist()):
        j = i + offset
        ranks[i], ranks[j] = ranks[j], ranks[i]
    return MeasurementMask(side=side, kept_ranks=ranks[:m])


def measure(coeffs: Array, mask: MeasurementMask) -> MeasurementSet:
    """Gather a spectrum array's values at the mask's zig-zag ranks."""
    if coeffs.shape != (mask.side, mask.side):
        raise ValueError(f"shape mismatch: spectrum {coeffs.shape}, mask side {mask.side}")
    return MeasurementSet(mask=mask, values=coeffs[mask.rows, mask.cols])

