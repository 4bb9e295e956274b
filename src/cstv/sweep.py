"""MSE metric, the single-signal recovery pipeline, and ratio sweeps.

The pipeline removes the signal mean before embedding and restores it
after recovery.  The mean must travel as side information: total variation
is invariant under constant shifts and the solver's updates are zero-mean,
so whenever the DC coefficient is not among the measurements the
reconstruction's mean would otherwise be pinned at zero.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import re
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .sampling import draw_mask, measure
from .signal import Signal1D, flatten_to_signal, reshape_to_image
from .solver import ReconstructionResult, SolverConfig, SolverFailure, reconstruct
from .transform import _dct2


@np.errstate(over="ignore")
def mse(a: Signal1D, b: Signal1D) -> float:
    """Mean squared error over the original samples: finite whenever it fits
    in a float, even when a square or the sum of the squares does not."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    diff = a.samples - b.samples
    err = float(np.mean(diff * diff))
    if err == math.inf:
        # each scaled square is at most the mean, and so is each partial sum
        scaled = diff / math.sqrt(len(diff))
        err = float(np.sum(scaled * scaled))
    return err


@np.errstate(over="ignore", invalid="ignore")
def recover_signal(
    signal: Signal1D,
    ratio: float,
    seed: int,
    config: SolverConfig | None = None,
) -> tuple[Signal1D, ReconstructionResult]:
    """Run the full reshape / sample / solve / flatten pipeline once.
    Samples near the float maximum whose mean, centring or kept DCT
    coefficients overflow make the start's TV non-finite, so the solve fails
    at iteration 1; the overflow, there or in the iterations, raises no
    warning, the :class:`SolverFailure` reports it."""
    mean = np.mean(signal.samples)
    image = reshape_to_image(signal.samples - mean)
    mask = draw_mask(image.shape[0], ratio, seed)
    meas = measure(_dct2(image), mask)
    result = reconstruct(meas, config)
    return Signal1D(flatten_to_signal(result.image, len(signal)) + mean), result


def checked_grid(ratios, seeds, names=("ratios", "seeds")) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """A sweep's ratios as floats and seeds as ints, each sorted, the order
    of the sweep's rows.  Raises ValueError, naming the list by ``names``,
    unless both lists are non-empty and distinct, every ratio lies in
    (0, 1] and every seed is at least 0."""
    ratios_name, seeds_name = names
    if not ratios:
        raise ValueError(f"{ratios_name} must be non-empty")
    if any(not (0.0 < r <= 1.0) for r in ratios):
        raise ValueError(f"{ratios_name} must lie in (0, 1], got {tuple(ratios)}")
    # a mask seed below 0 would fail only inside its row, after the rows before it were solved
    if not seeds or min(seeds) < 0:
        raise ValueError(f"{seeds_name} must be non-empty and >= 0, got {tuple(seeds)}")
    grid = tuple(sorted(map(float, ratios))), tuple(sorted(map(int, seeds)))
    # a repeated value would re-solve the same (ratio, seed) pair and
    # count it more than once in the ratio's median
    for name, values in zip(names, grid):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must be distinct, got {values}")
    return grid


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a signal, a ratio grid, mask seeds, solver config."""

    signal: Signal1D
    ratios: tuple[float, ...]
    seeds: tuple[int, ...]
    solver: SolverConfig = field(default_factory=SolverConfig)
    source: str = "unspecified"

    def __post_init__(self) -> None:
        ratios, seeds = checked_grid(self.ratios, self.seeds)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "seeds", seeds)


@dataclass(frozen=True)
class SweepRow:
    ratio: float
    seed: int
    mse: float
    iters_used: int
    converged: bool
    wall_time: float
    start_mse: float = float("nan")
    """MSE of the solver's zero-filled start, the baseline a recovery must beat."""
    final_tv: float = float("nan")


def _run_row(signal: Signal1D, config: SolverConfig, ratio: float, seed: int) -> SweepRow:
    start = time.perf_counter()
    try:
        recovered, result = recover_signal(signal, ratio, seed, config)
        start_signal = Signal1D(flatten_to_signal(result.start, len(signal)) + np.mean(signal.samples))
        row = dict(mse=mse(signal, recovered), iters_used=result.iters_used, converged=result.converged,
                   start_mse=mse(signal, start_signal), final_tv=result.final_tv)
    except SolverFailure as failure:
        row = dict(mse=float("nan"), iters_used=failure.iteration, converged=False)
    return SweepRow(ratio=ratio, seed=seed, wall_time=time.perf_counter() - start, **row)


def blas_thread_settings() -> dict[str, str | None]:
    """This environment's BLAS thread counts, in the order OpenBLAS reads them."""
    return {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}


def thread_budget() -> int:
    """The sweep processes that fit beside BLAS, which sizes ``--workers``
    only: the CPUs this process may run on over the BLAS threads of each.
    BLAS reads each count as C's atoi does and takes the first above 0;
    with none, it threads over every CPU itself and the budget is 1."""
    matches = (re.match(r"[ \t\n\v\f\r]*([+-]?[0-9]+)", value or "") for value in blas_thread_settings().values())
    counts = (int(match[1]) for match in matches if match)
    threads = next((count for count in counts if count > 0), 0)
    if threads < 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, cpus // threads)


def run_sweep(spec: SweepSpec, workers: int = 1) -> tuple[SweepRow, ...]:
    """Evaluate every (ratio, seed) pair on up to ``workers`` processes,
    this one included.

    With w processes this one solves grid rows 0, w, 2w, ... while a pool
    of w - 1 processes maps the others; no more processes run than there
    are rows.  Rows come back sorted by (ratio, seed), so a parallel run
    produces the same rows as a serial one (wall_time aside).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ratios, seeds = zip(*itertools.product(spec.ratios, spec.seeds))
    workers = min(workers, len(ratios))
    run_row = partial(_run_row, spec.signal, spec.solver)
    if workers == 1:
        return tuple(map(run_row, ratios, seeds))
    # imported here: loading it costs every other command start-up time
    from concurrent.futures import ProcessPoolExecutor

    pooled = [i for i in range(len(ratios)) if i % workers]
    with ProcessPoolExecutor(max_workers=workers - 1) as pool:
        theirs = pool.map(run_row, [ratios[i] for i in pooled], [seeds[i] for i in pooled])
        # row 0 holds the lowest ratio, which iterates unless every ratio is
        # 1.0, so a tracer that records only this process sees the solver run
        mine = list(map(run_row, ratios[::workers], seeds[::workers]))
        rows = mine + list(theirs)
    return tuple(sorted(rows, key=lambda row: (row.ratio, row.seed)))


def ratio_medians(rows: tuple[SweepRow, ...], key: str = "mse") -> tuple[tuple[float, float], ...]:
    """Per-ratio (ratio, median of ``key`` over seeds), failed rows excluded."""
    done = {ratio: sorted(getattr(r, key) for r in rows if r.ratio == ratio and not np.isnan(r.mse))
            for ratio in sorted({r.ratio for r in rows})}
    # the mean of the middle one or two values: np.median's, without the numpy.ma import of its NaN check
    return tuple((ratio, float(np.mean(v[(len(v) - 1) // 2:len(v) // 2 + 1])) if v else float("nan"))
                 for ratio, v in done.items())


def write_report_csv(rows: tuple[SweepRow, ...], path: str | Path) -> None:
    """Per-row CSV.  Timing is deliberately left to the JSON sidecar so
    repeated runs of the same spec are byte-identical."""
    with open(path, "w", newline="") as fh:
        fh.write("ratio,seed,mse,iters_used,converged\n")
        for row in rows:
            fh.write(f"{row.ratio!r},{row.seed},{row.mse!r},{row.iters_used},{str(row.converged).lower()}\n")


def _finite_or_null(value: float) -> float | None:
    return value if math.isfinite(value) else None


def environment() -> dict:
    """The Python, numpy and BLAS versions this process runs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except KeyError:  # a build that names no BLAS
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def write_report_sidecar(rows: tuple[SweepRow, ...], spec: SweepSpec, path: str | Path, workers: int = 1) -> None:
    """Provenance sidecar: spec, solver config, version, medians (also of
    the zero-filled starts), per-row start MSE, final TV and wall time, the
    processes that solved the rows (``workers``, capped as run_sweep caps
    it), the dtype their iterations ran in (``solve_dtype``), the BLAS
    thread settings and the versions (``env``) of this environment.
    A failed row's NaN, and any other value that is not finite, is written
    as null, so the file is strict JSON."""
    payload = {
        "version": __version__,
        "source": spec.source,
        "n_samples": len(spec.signal),
        "ratios": list(spec.ratios),
        "seeds": list(spec.seeds),
        "solver": asdict(spec.solver),
        "median_mse": {repr(ratio): _finite_or_null(med) for ratio, med in ratio_medians(rows)},
        "median_start_mse": {repr(ratio): _finite_or_null(med) for ratio, med in ratio_medians(rows, "start_mse")},
        "start_mse_rows": [_finite_or_null(r.start_mse) for r in rows],
        "final_tv_rows": [_finite_or_null(r.final_tv) for r in rows],
        "wall_time_rows": [r.wall_time for r in rows],
        "workers": min(workers, len(rows)),
        "solve_dtype": spec.solver.dtype.name,
        "blas_threads": blas_thread_settings(),
        "env": environment(),
    }
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
