"""1D signals, their square-image embedding, and the conversions between them.

:class:`Signal1D` checks a signal's samples once, where it enters or leaves
the program (a file, a generator, the recovery's argument and result).
Between those points samples, images and spectra are plain float64 arrays,
except inside a solve, whose iterations run in float32 at the default tol.
A length-N0 array is zero-padded up to the smallest perfect square and filled
into a side x side array column by column; the image does not record N0, and
the inverse conversion takes it from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

Array = np.ndarray

CSV_WRITE_CHUNK = 8192
"""Values a signal file is written in at a time."""


class SignalFormatError(ValueError):
    """Raised when a signal file cannot be parsed into finite floats."""


@dataclass(frozen=True, eq=False)
class Signal1D:
    """Immutable 1D sequence of a signal's true samples; zero padding added
    for the square embedding is never part of it.

    Equality is identity: the generated ``==`` would compare arrays.
    """

    samples: Array

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if arr.size < 1:
            raise ValueError("signal must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    def __reduce__(self):
        # a sweep sends the signal to its worker processes; rebuilding it
        # there keeps the unpickled samples read-only
        return (Signal1D, (self.samples,))


def reshape_to_image(samples: Array) -> Array:
    """Embed 1D samples into the smallest square matrix, column by column.

    The side is ceil(sqrt(N0)); positions past the last sample are zero.
    """
    n = len(samples)
    side = int(np.ceil(np.sqrt(n)))
    padded = np.zeros(side * side, dtype=np.float64)
    padded[:n] = samples
    return padded.reshape((side, side), order="F")


def flatten_to_signal(image: Array, n: int) -> Array:
    """Inverse of :func:`reshape_to_image` for ``n`` samples: read
    column-major and keep the first ``n`` entries."""
    if not 1 <= n <= image.size:
        raise ValueError(f"length {n} out of range for side {image.shape[0]}")
    return image.reshape(-1, order="F")[:n]


def load_signal_csv(path: str | Path) -> Signal1D:
    """Read a signal from UTF-8 text, one value per line; blank lines and a
    leading byte-order mark are skipped.  A file that is not UTF-8 is a
    format error, and :class:`Signal1D` rejects an empty file and NaN or
    infinity."""
    try:
        lines = [ln for ln in map(str.strip, Path(path).read_text(encoding="utf-8-sig").splitlines()) if ln]
        return Signal1D([float(t) for t in lines])
    except ValueError as exc:
        raise SignalFormatError(f"{path}: {exc}") from exc


def save_signal_csv(signal: Signal1D, path: str | Path) -> None:
    """Write one value per line with full float64 round-trip precision."""
    # joined per chunk, not into one string: joining the lines of a
    # 65 536-sample signal raised the peak memory of a reconstruct call by 3.5 MiB
    values = signal.samples.tolist()
    with open(path, "w") as fh:
        for start in range(0, len(values), CSV_WRITE_CHUNK):
            fh.write("\n".join(map(repr, values[start:start + CSV_WRITE_CHUNK])) + "\n")
