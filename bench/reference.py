"""A fixed numpy program, independent of cstv, that run.py times next to every call.

Usage::

    python3 bench/reference.py SIDE ITERS

It starts like a ``cstv`` call (a fresh interpreter that imports numpy)
and then runs ITERS iterations of a loop shaped like a TV solve on a
SIDE x SIDE image: forward differences, a projected dual step, a
divergence, and a pair of dense DCT matrix products.  Its work never
changes, so its wall time follows only the speed the shared host gives
the benchmark at that moment.  run.py divides each call's wall time by
the wall time of the reference runs on either side of it.
"""

from __future__ import annotations

import sys

import numpy as np


def main() -> int:
    side, iters = int(sys.argv[1]), int(sys.argv[2])
    k = np.arange(side, dtype=np.float64)[:, None]
    i = np.arange(side, dtype=np.float64)[None, :]
    c = np.sqrt(2.0 / side) * np.cos(np.pi * (2.0 * i + 1.0) * k / (2.0 * side))
    c[0, :] /= np.sqrt(2.0)
    low = np.add.outer(np.arange(side), np.arange(side)) < side  # the kept half of the spectrum
    x = np.random.default_rng(0).standard_normal((side, side))
    target = (c @ x @ c.T)[low]
    px = np.zeros_like(x)
    py = np.zeros_like(x)
    for _ in range(iters):
        px[:-1, :] += 0.25 * (x[1:, :] - x[:-1, :])
        py[:, :-1] += 0.25 * (x[:, 1:] - x[:, :-1])
        mag = np.maximum(np.sqrt(px * px + py * py), 1.0)
        px /= mag
        py /= mag
        div = px.copy()
        div[1:, :] -= px[:-1, :]
        div += py
        div[:, 1:] -= py[:, :-1]
        spec = c @ (x + 0.25 * div) @ c.T
        spec[low] = target
        x = c.T @ spec @ c
    if not np.all(np.isfinite(x)):
        print("reference: non-finite result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
