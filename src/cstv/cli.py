"""Command-line interface: signal generation, recovery, and ratio sweeps.

Exit codes: 0 success, 1 usage error, 2 solver failure (reconstruct only),
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .generators import gen_ecg_like, gen_pressure_like, gen_respiration_like
from .signal import Signal1D, SignalFormatError, load_signal_csv, reshape_to_image, save_signal_csv
from .solver import Row, SolverConfig, SolverFailure, load_solver_config
from .sweep import (SweepSpec, blas_thread_settings, checked_grid, mse, ratio_medians, recover_signal, run_sweep,
                    thread_budget, write_report_csv, write_report_sidecar)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3

GENERATORS = {"ecg": gen_ecg_like, "pressure": gen_pressure_like, "respiration": gen_respiration_like}


def write_pgm(samples: np.ndarray, path: str | Path) -> tuple[float, float]:
    """The samples' square image as an 8-bit binary PGM, min-max normalized
    over the samples, with the zero padding black; returns the bounds used."""
    lo = float(np.min(samples))
    hi = float(np.max(samples))
    if hi > lo:
        # from halves when the range exceeds the float maximum; halving is exact above the subnormals
        h = 0.5 if hi - lo == np.inf else 1.0
        scaled = np.round((samples * h - lo * h) / (hi * h - lo * h) * 255.0)
    else:
        scaled = np.zeros_like(samples)
    data = reshape_to_image(scaled).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cstv", description="TV recovery of signals from random 2D DCT coefficients")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic signal CSV")
    gen.add_argument("--kind", required=True, choices=tuple(GENERATORS))
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--fs", required=True, type=float)
    gen.add_argument("--bpm", type=float, default=None,
                     help="beats per minute (ecg, pressure) or breaths per minute (respiration)")
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen)

    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument("--in", dest="infile", required=True)
    solving.add_argument("--solver", default=None, help="solver config file (key = value lines)")
    solving.add_argument("--out", required=True)

    rec = sub.add_parser("reconstruct", parents=[solving], help="recover a signal from a random coefficient subset")
    rec.add_argument("--ratio", required=True, type=float)
    rec.add_argument("--seed", required=True, type=int)
    rec.add_argument("--dump-images", default=None, metavar="DIR",
                     help="write original/reconstructed PGM images and a bounds sidecar into DIR, which must exist")
    rec.add_argument("--residual-log", default=None, metavar="FILE",
                     help="write the stopping-test residuals as CSV, one row for each iteration that ran the test")
    rec.set_defaults(handler=_cmd_reconstruct)

    swp = sub.add_parser("sweep", parents=[solving], help="MSE versus sampling ratio over seeds")
    swp.add_argument("--ratios", required=True, help="comma-separated, e.g. 0.3,0.5,0.9")
    swp.add_argument("--seeds", required=True, help="comma-separated mask seeds")
    swp.add_argument("--workers", type=int, default=thread_budget(),
                     help="processes that solve rows, this one included (default here: %(default)s, the CPUs over "
                          f"the first of {', '.join(blas_thread_settings())} that C's atoi reads as above 0; 1 if none is)")
    swp.set_defaults(handler=_cmd_sweep)
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    kwargs = {} if args.bpm is None else {"bpm": args.bpm}
    signal = GENERATORS[args.kind](args.n, fs=args.fs, seed=args.seed, **kwargs)
    save_signal_csv(signal, args.out)
    return EXIT_OK


def _write_residual_log(path: str | None, residuals: tuple[Row, ...]) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write("iteration,primal,primal_scale,dual,dual_scale\n")
            fh.writelines(f"{','.join(map(repr, row))}\n" for row in residuals)


def _read_inputs(args: argparse.Namespace, *outputs: str | Path | None) -> tuple[SolverConfig, Signal1D]:
    """Check every file the command names, then read the solver config and
    the signal.  A file named twice, an input too, is a usage error, and an
    output that is a directory, or whose directory is missing, an I/O error;
    both raise before a late write failure could waste a solve."""
    written = [Path(p).resolve() for p in outputs if p]
    named = [Path(p).resolve() for p in (args.infile, args.solver) if p] + written
    for path in named:
        if named.count(path) > 1:
            raise ValueError(f"{path} is named twice")
    for path in written:
        if path.is_dir():
            raise IsADirectoryError(f"{path}: is a directory")
        if not path.parent.is_dir():
            raise FileNotFoundError(f"{path.parent}: no such directory")
    config = load_solver_config(args.solver) if args.solver else SolverConfig()
    return config, load_signal_csv(args.infile)


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    names = ("original.pgm", "reconstructed.pgm", "bounds.json")
    images = [Path(args.dump_images, name) for name in names] if args.dump_images else []
    # checked before any file is read
    checked_grid((args.ratio,), (args.seed,), names=("--ratio", "--seed"))
    config, signal = _read_inputs(args, args.out, args.residual_log, *images)
    try:
        recovered, result = recover_signal(signal, args.ratio, args.seed, config)
    except SolverFailure as failure:
        _write_residual_log(args.residual_log, failure.residuals)
        raise
    save_signal_csv(recovered, args.out)
    _write_residual_log(args.residual_log, result.residuals)
    if images:
        bounds = {}
        for path, samples in zip(images, (signal.samples, recovered.samples)):
            lo, hi = write_pgm(samples, path)
            bounds[path.stem] = {"min": lo, "max": hi}
        images[-1].write_text(json.dumps(bounds, indent=2) + "\n")
    err = mse(signal, recovered)
    print(f"mse={err!r} iters={result.iters_used} converged={result.converged}")
    return EXIT_OK


def _parse_list(text: str, cast) -> tuple:
    try:
        return tuple(cast(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse list {text!r}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    # checked before any file is read
    ratios, seeds = checked_grid(_parse_list(args.ratios, float), _parse_list(args.seeds, int),
                                 names=("--ratios", "--seeds"))
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    sidecar = Path(args.out).with_suffix(".json")
    config, signal = _read_inputs(args, args.out, sidecar)
    spec = SweepSpec(signal=signal, ratios=ratios, seeds=seeds, solver=config, source=f"file:{args.infile}")
    rows = run_sweep(spec, workers=args.workers)
    write_report_csv(rows, args.out)
    write_report_sidecar(rows, spec, sidecar, args.workers)
    for (ratio, median), (_, start) in zip(ratio_medians(rows), ratio_medians(rows, "start_mse")):
        print(f"ratio={ratio:.2f} median_mse={median!r} median_start_mse={start!r}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse exits 2 on a usage error and 0 after --help
        return EXIT_USAGE if exc.code == 2 else exc.code
    except SolverFailure as exc:
        print(f"cstv: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (SignalFormatError, OSError) as exc:
        print(f"cstv: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"cstv: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
