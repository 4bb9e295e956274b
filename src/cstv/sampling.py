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
    """Kept zig-zag ranks for a side x side spectrum, and their positions.

    Made by :func:`draw_mask`, which passes ``kept_ranks`` sorted, distinct
    and read-only; a direct constructor checks nothing.  ``rows`` and
    ``cols`` are the kept ranks' spectrum positions.  Equality is identity.
    """

    side: int
    kept_ranks: Array
    rows: Array = field(init=False, repr=False)
    cols: Array = field(init=False, repr=False)

    def __post_init__(self) -> None:
        order = zigzag_order(self.side)
        for name, positions in (("rows", order.rows[self.kept_ranks]), ("cols", order.cols[self.kept_ranks])):
            positions.setflags(write=False)
            object.__setattr__(self, name, positions)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Values at the mask's positions, made read-only by :func:`measure`;
    a direct constructor checks nothing.  Equality is identity."""

    mask: MeasurementMask
    values: Array


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
    kept = np.sort(np.array(ranks[:m], dtype=np.int64))
    kept.setflags(write=False)
    return MeasurementMask(side=side, kept_ranks=kept)


def measure(coeffs: Array, mask: MeasurementMask) -> MeasurementSet:
    """Gather a spectrum array's values at the mask's zig-zag ranks."""
    if coeffs.shape != (mask.side, mask.side):
        raise ValueError(f"shape mismatch: spectrum {coeffs.shape}, mask side {mask.side}")
    values = coeffs[mask.rows, mask.cols]
    values.setflags(write=False)
    return MeasurementSet(mask=mask, values=values)

