"""The three cstv workloads: their inputs, command lines and output checks.

Each workload is a closed loop with one client: the next ``cstv`` call
starts when the previous one has ended.  The workload seed derives every
generator seed and mask seed, and the program receives only the CSV files
written here.  Every signal length is a perfect square, so a recovered
signal is the whole recovered image and can be checked from outside: its
length and finiteness, its DCT at the kept ranks (feasibility) and its
total variation against that of the solver's zero-filled start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

# cstv is imported from the checkout under test (run.py puts src/ first on
# sys.path).  The benchmark uses it only to build its inputs and to rebuild
# masks for the feasibility check, through these public names.
from cstv.generators import gen_ecg_like, gen_pressure_like, gen_respiration_like
from cstv.sampling import draw_mask
from cstv.transform import zigzag_order

RATIO_GRID = tuple(round(0.30 + 0.05 * i, 2) for i in range(13))

# Largest |DCT2(output - truth)| allowed at a kept rank, as a share of the
# truth's largest |sample|.  The solver overwrites the kept coefficients
# exactly; what remains is float64 round-off from the transform and from
# restoring the mean, about 1e-15 of the peak.
FEASIBILITY_RTOL = 1e-9

# The zero-filled start (the truth's kept DCT coefficients, zeros elsewhere,
# and its mean) is feasible, so an output that merely returns it passes the
# feasibility check.  These limits make a solve that barely moves from its
# start fail.  Each reconstruct output must have a lower TV than its start,
# by more than round-off.
TV_BELOW_START = 1.0 - 1e-6
# Over a run, the median of TV(output) / TV(start) must not exceed this.  In
# the baseline runs (bench/README.md) run medians were 0.78-0.85.  Returning
# the start gives 1; stopping after one iteration gives 0.97-1.
TV_VS_START_MEDIAN_MAX = 0.92
# Over a sweep's rows, the median of MSE / MSE(start) must not exceed this.
# Single rows at low ratios can exceed 1 at 2000 iterations, but in the
# baseline runs the median over a call's rows was 0.002-0.045.  Returning the
# start or stopping after one iteration gives 1.
SWEEP_MSE_VS_START_MEDIAN_MAX = 0.25


def derive_seed(seed: int, *parts: int) -> int:
    """A 31-bit seed that depends only on the workload seed and parts."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0] >> 1)


def write_csv(samples: np.ndarray, path: Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{float(v)!r}\n" for v in samples)


def read_csv(path: Path) -> np.ndarray:
    with open(path) as fh:
        return np.array([float(line) for line in fh if line.strip()], dtype=np.float64)


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(n, dtype=np.float64)[None, :]
    c = np.sqrt(2.0 / n) * np.cos(np.pi * (2.0 * i + 1.0) * k / (2.0 * n))
    c[0, :] /= np.sqrt(2.0)
    return c


def _image(samples: np.ndarray) -> np.ndarray:
    side = math.isqrt(samples.size)
    return samples.reshape((side, side), order="F")


def total_variation(samples: np.ndarray) -> float:
    """Isotropic TV of the column-wise image, forward differences."""
    x = _image(samples)
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    gx[:-1, :] = x[1:, :] - x[:-1, :]
    gy[:, :-1] = x[:, 1:] - x[:, :-1]
    return float(np.sum(np.sqrt(gx * gx + gy * gy)))


def kept_positions(side: int, ratio: float, mask_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the kept DCT coefficients, from the public draw_mask."""
    order = zigzag_order(side)
    kept = draw_mask(side, ratio, mask_seed).kept_ranks
    return order.rows[kept], order.cols[kept]


def feasibility_error(output: np.ndarray, truth: np.ndarray, kept: tuple) -> float:
    """Largest |DCT2(output - truth)| over the kept positions, relative to max|truth|.

    The mean the pipeline removes and restores cancels in the difference.
    """
    c = _dct_matrix(math.isqrt(truth.size))
    diff = c @ _image(output - truth) @ c.T
    worst = float(np.max(np.abs(diff[kept])))
    return worst / max(float(np.max(np.abs(truth))), 1e-300)


def zero_filled(truth: np.ndarray, kept: tuple) -> np.ndarray:
    """The solver's start: the truth's kept DCT coefficients, zeros elsewhere, plus its mean."""
    mean = float(np.mean(truth))
    c = _dct_matrix(math.isqrt(truth.size))
    spectrum = c @ _image(truth - mean) @ c.T
    start = np.zeros_like(spectrum)
    start[kept] = spectrum[kept]
    return (c.T @ start @ c).reshape(-1, order="F") + mean


@dataclass
class Item:
    """One cstv call: its arguments (without --out) and what to check."""

    args: list[str]
    units: int
    """Items the call completes: rows for a sweep, 1 for a reconstruct."""
    truth: np.ndarray
    ratio: float = 0.0
    mask_seed: int = 0
    kind: str = ""


@dataclass
class Outcome:
    """Checks and quality of one finished call."""

    failed: int
    quality: dict
    problems: list


class Workload:
    name = ""
    min_calls = 1
    reference = (32, 200)
    """Image side and iterations of bench/reference.py: the workload's side, and work that
    takes a fraction of a call."""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed

    def item(self, index: int) -> Item:
        raise NotImplementedError

    def check(self, item: Item, exit_code: int, out: Path) -> Outcome:
        raise NotImplementedError

    def check_run(self, outcomes: list[Outcome]) -> list[str]:
        """Checks over the whole run; a failure marks every item of the run failed."""
        return []

    def summarize(self, outcomes: list[Outcome]) -> dict:
        """Workload-level quality beyond per-item medians."""
        feas = [o.quality["feasibility"] for o in outcomes if "feasibility" in o.quality]
        return {"feasibility_max": max(feas)} if feas else {}


def check_reconstruct(item: Item, exit_code: int, out: Path) -> Outcome:
    if exit_code != 0:
        return Outcome(1, {}, [f"exit code {exit_code}"])
    try:
        y = read_csv(out)
    except (OSError, ValueError) as exc:
        return Outcome(1, {}, [f"unreadable output: {exc}"])
    if y.size != item.truth.size:
        return Outcome(1, {}, [f"output length {y.size} != input length {item.truth.size}"])
    if not np.all(np.isfinite(y)):
        return Outcome(1, {}, ["non-finite output"])
    problems = []
    kept = kept_positions(math.isqrt(item.truth.size), item.ratio, item.mask_seed)
    feas = feasibility_error(y, item.truth, kept)
    if not feas <= FEASIBILITY_RTOL:
        problems.append(f"infeasible: kept-rank error {feas:.3e} of max|x| > {FEASIBILITY_RTOL:g}")
    tv_out = total_variation(y)
    tv_start = total_variation(zero_filled(item.truth, kept))
    if not tv_out < TV_BELOW_START * tv_start:
        problems.append(f"TV {tv_out:.9g} is not below the zero-filled start's {tv_start:.9g}")
    err = y - item.truth
    quality = {
        "rel_mse": float(np.mean(err * err) / np.var(item.truth)),
        "tv_ratio": tv_out / total_variation(item.truth),
        "tv_vs_start": tv_out / tv_start,
        "feasibility": feas,
        "kind": item.kind,
    }
    return Outcome(1 if problems else 0, quality, problems)


class ReconstructWorkload(Workload):
    """One ``cstv reconstruct`` call per item, its output checked from outside."""

    def check(self, item: Item, exit_code: int, out: Path) -> Outcome:
        return check_reconstruct(item, exit_code, out)

    def check_run(self, outcomes: list[Outcome]) -> list[str]:
        ratios = [o.quality["tv_vs_start"] for o in outcomes if "tv_vs_start" in o.quality]
        if not ratios or median(ratios) <= TV_VS_START_MEDIAN_MAX:
            return []
        for o in outcomes:
            o.failed = 1
        return [f"median TV(output) / TV(zero-filled start) is {median(ratios):.4f} over {len(ratios)} "
                f"calls, above {TV_VS_START_MEDIAN_MAX}: the solves barely moved from their start"]

    def summarize(self, outcomes: list[Outcome]) -> dict:
        ratios = [o.quality["tv_vs_start"] for o in outcomes if "tv_vs_start" in o.quality]
        extra = {"tv_vs_start_median": median(ratios)} if ratios else {}
        return {**super().summarize(outcomes), **extra}


class TrendSweep(Workload):
    name = "trend_sweep"
    min_calls = 2  # CSV bytes are compared across repeats
    reference = (64, 12000)
    SEEDS_PER_RATIO = 2

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        self.truth = gen_ecg_like(4096, bpm=36.0, fs=4800.0, seed=derive_seed(seed, 0)).samples
        self.infile = workdir / "trend_ecg.csv"
        write_csv(self.truth, self.infile)
        self.solver = workdir / "trend_solver.cfg"
        self.solver.write_text("max_iters = 2000\n")
        self.mask_seeds = sorted(derive_seed(seed, 1, j) for j in range(self.SEEDS_PER_RATIO))
        self.start_mse = {}
        for r in RATIO_GRID:
            for s in self.mask_seeds:
                err = zero_filled(self.truth, kept_positions(math.isqrt(self.truth.size), r, s)) - self.truth
                self.start_mse[(r, s)] = float(np.mean(err * err))
        self.first_bytes: bytes | None = None

    def item(self, index: int) -> Item:
        args = [
            "sweep", "--in", str(self.infile),
            "--ratios", ",".join(repr(r) for r in RATIO_GRID),
            "--seeds", ",".join(str(s) for s in self.mask_seeds),
            "--solver", str(self.solver),
        ]
        return Item(args=args, units=len(RATIO_GRID) * len(self.mask_seeds), truth=self.truth)

    def check(self, item: Item, exit_code: int, out: Path) -> Outcome:
        if exit_code != 0:
            return Outcome(item.units, {}, [f"exit code {exit_code}"])
        try:
            data = out.read_bytes()
            lines = data.decode().splitlines()
            header = lines[0].split(",") if lines else []
            col = {name: header.index(name) for name in ("ratio", "seed", "mse")}
            rows = {}
            for line in lines[1:]:
                fields = line.split(",")
                rows[(float(fields[col["ratio"]]), int(fields[col["seed"]]))] = float(fields[col["mse"]])
        except (OSError, ValueError, IndexError) as exc:
            return Outcome(item.units, {}, [f"unreadable report (needs ratio, seed and mse columns): {exc}"])
        expected = {(r, s) for r in RATIO_GRID for s in self.mask_seeds}
        if set(rows) != expected or len(lines) - 1 != len(expected):
            return Outcome(item.units, {}, ["report rows do not match the ratio x seed grid"])
        nonfinite = sum(1 for v in rows.values() if not (math.isfinite(v) and v >= 0.0))
        problems = [f"{nonfinite} rows with non-finite mse"] if nonfinite else []
        shares = [v / self.start_mse[k] for k, v in rows.items() if math.isfinite(v) and v >= 0.0]
        vs_start = median(shares) if shares else float("nan")
        if not vs_start <= SWEEP_MSE_VS_START_MEDIAN_MAX:
            return Outcome(item.units, {}, [f"median MSE / MSE(zero-filled start) over the rows is {vs_start:.4f}, "
                                            f"above {SWEEP_MSE_VS_START_MEDIAN_MAX}"])
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            return Outcome(item.units, {}, ["report CSV bytes differ from the first repeat"])
        var = float(np.var(self.truth))
        medians = [float(np.median([rows[(r, s)] for s in self.mask_seeds])) for r in RATIO_GRID]
        quality = {
            "rel_mse_rows": [v / var for v in rows.values() if math.isfinite(v)],
            "inversions": sum(1 for a, b in zip(medians, medians[1:]) if b > a),
            "median_curve": [m / var for m in medians],
            "mse_vs_start_median": vs_start,
        }
        return Outcome(nonfinite, quality, problems)

    def summarize(self, outcomes: list[Outcome]) -> dict:
        done = [o.quality for o in outcomes if "inversions" in o.quality]
        if not done:
            return {}
        return {"trend_inversions": done[0]["inversions"], "median_curve": done[0]["median_curve"],
                "mse_vs_start_median": done[0]["mse_vs_start_median"]}


class LongRecord(ReconstructWorkload):
    name = "long_record"
    min_calls = 3
    reference = (256, 200)
    STRIDE = 6  # ratio index step: consecutive calls spread over the grid

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        self.truth = gen_ecg_like(65536, fs=360.0, seed=derive_seed(seed, 0)).samples
        self.infile = workdir / "long_ecg.csv"
        write_csv(self.truth, self.infile)

    def item(self, index: int) -> Item:
        ratio = RATIO_GRID[(self.STRIDE * index) % len(RATIO_GRID)]
        mask_seed = derive_seed(self.seed, 1, index)
        args = ["reconstruct", "--in", str(self.infile), "--ratio", repr(ratio), "--seed", str(mask_seed)]
        return Item(args=args, units=1, truth=self.truth, ratio=ratio, mask_seed=mask_seed, kind="ecg")


def _short_record(kind: str, seed: int) -> np.ndarray:
    if kind == "ecg_mv":
        return gen_ecg_like(1024, seed=seed).samples
    if kind == "ecg_adc":
        return gen_ecg_like(1024, seed=seed, amplitude=200.0).samples
    if kind == "pressure_mmhg":
        return gen_pressure_like(1024, seed=seed).samples
    return gen_respiration_like(1024, seed=seed).samples


class ShortRecords(ReconstructWorkload):
    name = "short_records"
    min_calls = 8
    KINDS = ("ecg_mv", "ecg_adc", "pressure_mmhg", "respiration")

    def item(self, index: int) -> Item:
        # 4 kinds and 13 ratios are coprime, so every 52 calls cover each pair once
        kind = self.KINDS[index % len(self.KINDS)]
        ratio = RATIO_GRID[index % len(RATIO_GRID)]
        truth = _short_record(kind, derive_seed(self.seed, 0, index))
        infile = self.workdir / f"short_{index}.csv"
        write_csv(truth, infile)
        mask_seed = derive_seed(self.seed, 1, index)
        args = ["reconstruct", "--in", str(infile), "--ratio", repr(ratio), "--seed", str(mask_seed)]
        return Item(args=args, units=1, truth=truth, ratio=ratio, mask_seed=mask_seed, kind=kind)

    def summarize(self, outcomes: list[Outcome]) -> dict:
        by_kind = {}
        for kind in self.KINDS:
            values = [o.quality["rel_mse"] for o in outcomes if o.quality.get("kind") == kind]
            if values:
                by_kind[kind] = float(np.median(values))
        return {**super().summarize(outcomes), "rel_mse_median_by_kind": by_kind}


WORKLOADS = {w.name: w for w in (TrendSweep, LongRecord, ShortRecords)}
