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
from .signal import SignalFormatError, load_signal_csv, reshape_to_image, save_signal_csv
from .solver import SolverConfig, SolverFailure, load_solver_config
from .sweep import SweepSpec, mse, recover_signal, run_sweep, write_report_csv, write_report_sidecar

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3

GENERATORS = {"ecg": gen_ecg_like, "pressure": gen_pressure_like, "respiration": gen_respiration_like}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def write_pgm(samples: np.ndarray, path: str | Path) -> tuple[float, float]:
    """The samples' square image as an 8-bit binary PGM, min-max normalized
    over the samples, with the zero padding black; returns the bounds used."""
    lo = float(np.min(samples))
    hi = float(np.max(samples))
    if hi > lo:
        scaled = np.round((samples - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(samples)
    data = reshape_to_image(scaled).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
    return lo, hi


def _build_parser() -> _Parser:
    parser = _Parser(prog="cstv", description="TV recovery of signals from random 2D DCT coefficients")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic signal CSV")
    gen.add_argument("--kind", required=True, choices=tuple(GENERATORS))
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--fs", required=True, type=float)
    gen.add_argument("--bpm", type=float, default=None,
                     help="beats per minute (ecg, pressure) or breaths per minute (respiration)")
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True)

    rec = sub.add_parser("reconstruct", help="recover a signal from a random coefficient subset")
    rec.add_argument("--in", dest="infile", required=True)
    rec.add_argument("--ratio", required=True, type=float)
    rec.add_argument("--seed", required=True, type=int)
    rec.add_argument("--solver", default=None, help="solver config file (key = value lines)")
    rec.add_argument("--out", required=True)
    rec.add_argument("--dump-images", default=None, metavar="DIR",
                     help="write original/reconstructed PGM images and a bounds sidecar")
    rec.add_argument("--residual-log", default=None, metavar="FILE",
                     help="write each iteration's stopping-test residuals as CSV")

    swp = sub.add_parser("sweep", help="MSE versus sampling ratio over seeds")
    swp.add_argument("--in", dest="infile", required=True)
    swp.add_argument("--ratios", required=True, help="comma-separated, e.g. 0.3,0.5,0.9")
    swp.add_argument("--seeds", required=True, help="comma-separated mask seeds")
    swp.add_argument("--solver", default=None)
    swp.add_argument("--workers", type=int, default=1)
    swp.add_argument("--out", required=True)
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    kwargs = {} if args.bpm is None else {"bpm": args.bpm}
    signal = GENERATORS[args.kind](args.n, fs=args.fs, seed=args.seed, **kwargs)
    save_signal_csv(signal, args.out)
    return EXIT_OK


def _write_residual_log(path: str | None, residuals: tuple[tuple[float, ...], ...]) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write("iteration,primal,primal_scale,dual,dual_scale\n")
            for iteration, norms in enumerate(residuals, start=1):
                fh.write(f"{iteration},{','.join(map(repr, norms))}\n")


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    config = load_solver_config(args.solver) if args.solver else SolverConfig()
    signal = load_signal_csv(args.infile)
    try:
        recovered, result = recover_signal(signal, args.ratio, args.seed, config)
    except SolverFailure as failure:
        _write_residual_log(args.residual_log, failure.residuals)
        raise
    save_signal_csv(recovered, args.out)
    _write_residual_log(args.residual_log, result.residuals)
    if args.dump_images:
        out_dir = Path(args.dump_images)
        out_dir.mkdir(parents=True, exist_ok=True)
        bounds = {}
        for name, samples in (("original", signal.samples), ("reconstructed", recovered.samples)):
            lo, hi = write_pgm(samples, out_dir / f"{name}.pgm")
            bounds[name] = {"min": lo, "max": hi}
        (out_dir / "bounds.json").write_text(json.dumps(bounds, indent=2) + "\n")
    err = mse(signal, recovered)
    print(f"mse={err!r} iters={result.iters_used} converged={result.converged}")
    return EXIT_OK


def _parse_list(text: str, cast) -> tuple:
    try:
        return tuple(cast(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse list {text!r}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    # checked before any row is solved, which a late failure would waste
    out = Path(args.out)
    sidecar = out.with_suffix(".json")
    if sidecar == out:
        raise ValueError(f"--out {out} is the path of its own JSON sidecar")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"{out.parent}: no such directory")
    config = load_solver_config(args.solver) if args.solver else SolverConfig()
    spec = SweepSpec(
        signal=load_signal_csv(args.infile),
        ratios=_parse_list(args.ratios, float),
        seeds=_parse_list(args.seeds, int),
        solver=config,
        source=f"file:{args.infile}",
    )
    report = run_sweep(spec, workers=args.workers)
    write_report_csv(report, out)
    write_report_sidecar(report, spec, sidecar)
    for ratio, median in report.median_mse:
        print(f"ratio={ratio:.2f} median_mse={median!r}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "reconstruct":
            return _cmd_reconstruct(args)
        return _cmd_sweep(args)
    except SystemExit as exc:  # argparse's usage errors and --help
        return exc.code
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
