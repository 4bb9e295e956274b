"""cstv benchmark: drive the ``cstv`` command line, check its outputs, report metrics.

Usage, from the root of a checkout::

    python3 bench/run.py [--workload {trend_sweep,long_record,short_records,all}]
                         [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs, one after the other.

Every call is a fresh ``cstv`` process (the console script's own entry:
``from cstv.cli import main``), run from the checkout's ``src/`` one at a
time with BLAS pinned to one thread.  The loop keeps starting calls until
the next one would end after ``--seconds``.  After the loop every output
is checked; a failed check counts against ``failed``.

A fixed numpy program independent of cstv (bench/reference.py) runs
before the first call and after every item.  Each call's wall time is
also given as a share of the mean wall time of the two reference runs
around it.  That cancels the changes in speed of a shared host that last
longer than one item; the gated timings are these shares.

With ``--trace 0`` the calls run untraced and the last line carries the
end-to-end metrics listed in BENCHMARK.json.  With ``--trace 1`` each item
runs twice, traced (through bench/traced_cli.py) and untraced, in
alternating order: the per-layer metrics come from the traced calls and
the difference between the two is the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 31  # fresh imports per run, about half before the calls and half after
LOOP_LIMIT_S = 150.0  # no call starts that could end later than this into the run
KILL_LIMIT_S = 165.0  # a call still running this far into the run is killed
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
CLI_ENTRY = "import sys; from cstv.cli import main; sys.exit(main())"

# name -> unit; the ones BENCHMARK.json lists go on the last line
END_TO_END = {
    "setup_s": "s",
    "throughput_vs_ref": "1/ref",
    "latency_p50_vs_ref": "ratio",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "reference_p50_s": "s",
    "latency_tail_s": "s",
    "rel_mse_median": "ratio",
    "tv_ratio_median": "ratio",
    "trend_inversions": "count",
    "failed_frac": "fraction",
    "peak_rss_mb": "MiB",
}
TRACE_OVERHEAD = {
    "trace.overhead_latency_p50_s": "s",
    "trace.overhead_throughput_per_s": "1/s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(BLAS_THREADS)
    # imports use cached bytecode, as an installed package does, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Launcher:
    """A small process (bench/launcher.py) that starts every timed process.

    Started before this process loads numpy and the inputs, so the peak
    RSS of the children it reports is their own.
    """

    def __init__(self, env: dict) -> None:
        # its own process group, so an interrupted run can stop it and the call it is timing
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)

    def run(self, argv: list[str], log: Path, timeout: float) -> tuple[int, float, int]:
        """Run one process to completion: (exit code, wall seconds, peak RSS in KiB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "log": str(log), "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        reply = json.loads(reply)
        return reply["code"], reply["wall"], reply["rss_kb"]

    def close(self, kill: bool = False) -> None:
        if kill:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def measure_setup(launcher: Launcher, workdir: Path, reps: int) -> list[float]:
    """Wall time of a fresh interpreter importing cstv.cli, after one warm-up."""
    walls = []
    for rep in range(reps + 1):
        code, wall, _ = launcher.run([sys.executable, "-c", "import cstv.cli"], workdir / "setup.log", 60.0)
        if code != 0:
            raise RuntimeError(f"import cstv.cli failed: {(workdir / 'setup.log').read_text()[-2000:]}")
        if rep:
            walls.append(wall)
    return walls


@dataclass
class Call:
    index: int
    item: object
    traced: bool
    exit_code: int
    wall: float
    rss_kb: int
    out: Path
    spans: Path | None
    log: Path
    ref: float = 0.0
    """Mean wall time of the reference runs just before and just after the item."""


def run_reference(workload, launcher: Launcher, workdir: Path) -> float:
    side, iters = workload.reference
    log = workdir / "reference.log"
    code, wall, _ = launcher.run([sys.executable, str(BENCH_DIR / "reference.py"), str(side), str(iters)],
                                 log, 60.0)
    if code != 0:
        raise RuntimeError(f"reference run failed: {log.read_text()[-2000:]}")
    return wall


def run_loop(workload, seconds: float, trace: bool, launcher: Launcher, workdir: Path,
             t_run: float) -> tuple[list[Call], list[float]]:
    calls: list[Call] = []
    start = time.perf_counter()
    refs = [run_reference(workload, launcher, workdir)]
    longest = 0.0
    index = 0
    while True:
        item = workload.item(index)
        order = [False] if not trace else ([True, False] if index % 2 == 0 else [False, True])
        spent = 0.0
        for traced in order:
            tag = "t" if traced else "u"
            out = workdir / f"out_{index}_{tag}.csv"
            log = workdir / f"log_{index}_{tag}.txt"
            spans = workdir / f"spans_{index}.npz" if traced else None
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans)]
            else:
                argv = [sys.executable, "-c", CLI_ENTRY]
            argv += item.args + ["--out", str(out)]
            timeout = t_run + KILL_LIMIT_S - time.perf_counter()
            code, wall, rss = launcher.run(argv, log, timeout)
            calls.append(Call(index, item, traced, code, wall, rss, out, spans, log))
            spent += wall
        refs.append(run_reference(workload, launcher, workdir))
        spent += refs[-1]
        for call in calls[-len(order):]:
            call.ref = 0.5 * (refs[-2] + refs[-1])
        longest = max(longest, spent)
        index += 1
        now = time.perf_counter()
        if len(calls) >= workload.min_calls and now - start + longest > seconds:
            break
        if now - t_run + longest > LOOP_LIMIT_S:
            break
    return calls, refs


def tail_percentile(values: list[float]) -> tuple[float | None, int]:
    """Highest whole percentile with at least ten samples above it (nearest rank).

    None when that percentile would not lie above the median (n < 21).
    """
    n = len(values)
    pct = math.floor(100.0 * (n - 10) / n) if n > 10 else 0
    if pct <= 50:
        return None, 0
    rank = max(1, math.ceil(pct * n / 100.0))
    return sorted(values)[rank - 1], pct


def end_to_end(calls: list[Call], outcomes: list, workload, setup_walls: list[float],
               refs: list[float]) -> tuple[dict, dict]:
    units = sum(c.item.units for c in calls)
    failed = sum(o.failed for o in outcomes)
    walls = [c.wall for c in calls]
    shares = [c.wall / c.ref for c in calls]
    tail, pct = tail_percentile(walls)
    rel = [v for o in outcomes for v in o.quality.get("rel_mse_rows", [])]
    rel += [o.quality["rel_mse"] for o in outcomes if "rel_mse" in o.quality]
    tv = [o.quality["tv_ratio"] for o in outcomes if "tv_ratio" in o.quality]
    summary = workload.summarize(outcomes)
    values = {
        "setup_s": median(setup_walls),
        "throughput_vs_ref": (units - failed) / sum(shares),
        "latency_p50_vs_ref": median(shares),
        "throughput_per_s": (units - failed) / sum(walls),
        "latency_p50_s": median(walls),
        "reference_p50_s": median(refs),
        "latency_tail_s": tail,
        "rel_mse_median": median(rel) if rel else None,
        "tv_ratio_median": median(tv) if tv else None,
        "trend_inversions": summary.get("trend_inversions"),
        "failed_frac": failed / units,
        "peak_rss_mb": max(c.rss_kb for c in calls) / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_walls)} fresh imports of cstv.cli",
        "throughput_vs_ref": f"{units - failed} items per {sum(shares):.4g} reference runs of call time",
        "latency_p50_vs_ref": f"call wall / mean of the reference runs around it, n={len(walls)}",
        "throughput_per_s": f"{units - failed} items in {sum(walls):.3f} s of calls",
        "latency_p50_s": f"n={len(walls)}",
        "reference_p50_s": "bench/reference.py {} {}, n={}".format(*workload.reference, len(refs)),
        "latency_tail_s": f"p{pct} of n={len(walls)}" if tail is not None
        else f"absent: n={len(walls)} calls, a tail above the median needs at least 21",
        "failed_frac": f"{failed} of {units}",
    }
    if values["tv_ratio_median"] is None:
        notes["tv_ratio_median"] = "absent: the sweep reports no final TV"
    if values["trend_inversions"] is None:
        notes["trend_inversions"] = "absent: only the sweep has a ratio curve"
    return values, notes


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> dict:
    """The git commit if the checkout is a repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unavailable: git failed"
    return {"git": commit, "src_sha256": digest.hexdigest()}


def env_block(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "workload_seed": seed,
    }


def run_workload(name: str, why: str, seed: int, seconds: float, trace: bool, workroot: Path,
                 launcher: Launcher) -> dict:
    from layers import PER_LAYER, load, summarize
    from workloads import WORKLOADS

    t_run = time.perf_counter()
    workdir = workroot / name
    workdir.mkdir(parents=True)
    setup_walls = measure_setup(launcher, workdir, SETUP_REPS // 2 + 1)
    workload = WORKLOADS[name](workdir, seed)
    calls, refs = run_loop(workload, seconds, trace, launcher, workdir, t_run)
    setup_walls += measure_setup(launcher, workdir, SETUP_REPS // 2)

    outcomes = [workload.check(c.item, c.exit_code, c.out) for c in calls]
    problems = workload.check_run(outcomes)
    for c, o in zip(calls, outcomes):
        for p in o.problems:
            tail = c.log.read_text(errors="replace")[-300:].strip() if c.exit_code != 0 else ""
            problems.append(f"call {c.index}{' traced' if c.traced else ''}: {p}" + (f" | {tail}" if tail else ""))

    plain = [(c, o) for c, o in zip(calls, outcomes) if not c.traced]
    values, notes = end_to_end([c for c, _ in plain], [o for _, o in plain], workload, setup_walls, refs)
    units = dict(END_TO_END)
    report = {
        "workload": name,
        "why": why,
        "env": env_block(seed),
        "attempted": sum(c.item.units for c in calls),
        "failed": sum(o.failed for o in outcomes),
        "problems": problems,
        "end_to_end": values,
        "notes": notes,
        "quality": {k: v for k, v in workload.summarize(outcomes).items() if k != "trend_inversions"},
    }
    if trace:
        traced = [(c, o) for c, o in zip(calls, outcomes) if c.traced]
        t_values, _ = end_to_end([c for c, _ in traced], [o for _, o in traced], workload, setup_walls, refs)
        layer_values, layer_notes = summarize([load(c.spans) for c, _ in traced if c.spans.exists()])
        layer_values["trace.overhead_latency_p50_s"] = t_values["latency_p50_s"] - values["latency_p50_s"]
        layer_values["trace.overhead_throughput_per_s"] = t_values["throughput_per_s"] - values["throughput_per_s"]
        layer_notes["trace.overhead_latency_p50_s"] = (
            f"traced {t_values['latency_p50_s']:.6g} s - untraced {values['latency_p50_s']:.6g} s, "
            f"{len(traced)} pairs")
        report["per_layer"] = layer_values
        report["notes"].update(layer_notes)
        units.update({k: u for k, (u, _, _) in PER_LAYER.items()})
        units.update(TRACE_OVERHEAD)
    report["units"] = units
    return report


def print_report(report: dict, gated: set[str]) -> None:
    print(f"== {report['workload']}: {report['why']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    sections = [("end_to_end", report["end_to_end"])]
    if "per_layer" in report:
        sections.append(("per_layer", report["per_layer"]))
    for title, values in sections:
        print(f"-- {title}")
        for name, value in values.items():
            shown = "absent" if value is None else f"{value:.6g}"
            flag = "*" if name in gated else " "
            note = report["notes"].get(name, "")
            print(f" {flag} {name:36s} {shown:>14s} {report['units'][name]:9s} {note}")
    for key, value in report["quality"].items():
        print(f"-- {key} " + json.dumps(value))
    print(f"-- checks: {report['attempted'] - report['failed']} of {report['attempted']} items passed")
    for p in report["problems"][:20]:
        print("   " + p)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=("trend_sweep", "long_record", "short_records", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the finally below still cleans up
    if not (SRC / "cstv" / "cli.py").is_file():
        print(f"cstv sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    names = list(whys) if args.workload == "all" else [args.workload]
    workroot = ROOT / ".bench_work" / str(os.getpid())
    launcher = Launcher(child_env())
    reports = []
    finished = False
    try:
        for name in names:
            report = run_workload(name, whys[name], args.seed, args.seconds, bool(args.trace), workroot, launcher)
            print_report(report, set(listed))
            reports.append(report)
        finished = True
    finally:
        launcher.close(kill=not finished)
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass

    metrics = {}
    for report in reports:
        values = report.get("per_layer", {}) if args.trace else report["end_to_end"]
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        for name in listed:
            if values.get(name) is not None:
                metrics[prefix + name] = {"value": values[name], "unit": report["units"][name]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
