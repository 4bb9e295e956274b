"""Per-layer metrics from the spans that traced_cli.py writes.

Layers are the cstv modules.  A span's self time is its duration minus
the durations of its direct children (calls are nested and serial, so the
children never overlap).  Times are per CLI call and reported as the
median over the traced calls of a run; rates and shares pool all calls.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median

import numpy as np

LOAD = "cstv.cli.load_signal_csv"
SAVE = "cstv.cli.save_signal_csv"
RUN_SWEEP = "cstv.cli.run_sweep"
RECOVER = ("cstv.cli.recover_signal", "cstv.sweep.recover_signal")
DRAW = "cstv.sweep.draw_mask"
MEASURE = "cstv.sweep.measure"
SOLVE = "cstv.sweep.reconstruct"
PAIR = ("cstv.solver._dct2", "cstv.solver._idct2")
REPORT = ("cstv.cli.write_report_csv", "cstv.cli.write_report_sidecar")

# name -> (unit, wrapped names that must all exist, names of which one must be called)
PER_LAYER = {
    "cli.import_s": ("s", (), ()),
    "cli.self_s": ("s", (), ()),
    "signal.load_s": ("s", (LOAD,), (LOAD,)),
    "signal.save_s": ("s", (SAVE,), (SAVE,)),
    "signal.bytes": ("bytes", (LOAD,), (LOAD,)),
    "sampling.draw_mask_s": ("s", (DRAW,), (DRAW,)),
    "sampling.measure_s": ("s", (MEASURE,), (MEASURE,)),
    "sampling.kept": ("count", (MEASURE,), (MEASURE,)),
    "transform.pair_us": ("us", PAIR, PAIR),
    "transform.pairs": ("count", PAIR, PAIR),
    "transform.share": ("fraction", PAIR + (SOLVE,), PAIR),
    "transform.gflop_s": ("GFLOP/s", PAIR + (SOLVE,), PAIR),
    "transform.flops_per_pair_computed": ("flop", PAIR + (SOLVE,), PAIR),
    "transform.bytes_per_pair_computed": ("bytes", PAIR + (SOLVE,), PAIR),
    "solver.solve_s": ("s", (SOLVE,), (SOLVE,)),
    "solver.self_s": ("s", (SOLVE,) + PAIR, (SOLVE,)),
    "solver.iters": ("count", (SOLVE,), (SOLVE,)),
    "solver.iter_us": ("us", (SOLVE,), (SOLVE,)),
    "solver.converged_frac": ("fraction", (SOLVE,), (SOLVE,)),
    "solver.failures": ("count", (SOLVE,), (SOLVE,)),
    "sweep.recover_s": ("s", (), RECOVER),
    "sweep.self_s": ("s", (), RECOVER + (RUN_SWEEP,)),
    "sweep.report_s": ("s", (), REPORT),
}


def load(path: Path) -> dict:
    """Read the spans one traced_cli.py process wrote."""
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        trace = {key: z[key] for key in ("name_id", "start", "end", "parent")}
    trace["names"] = meta["names"]
    trace["absent"] = meta["absent"]
    trace["attrs"] = {int(k): v for k, v in meta["attrs"].items()}
    return trace


def per_call(trace: dict) -> dict:
    """Totals and counts of one traced CLI call."""
    dur = trace["end"] - trace["start"]
    child = np.zeros_like(dur)
    nested = trace["parent"] >= 0
    np.add.at(child, trace["parent"][nested], dur[nested])
    self_time = dur - child
    ids = {name: i for i, name in enumerate(trace["names"])}

    def select(*names):
        return np.isin(trace["name_id"], [ids[n] for n in names if n in ids])

    def attrs(*names):
        wanted = {ids[n] for n in names if n in ids}
        return [a for i, a in trace["attrs"].items() if trace["name_id"][i] in wanted]

    solves = attrs(SOLVE)
    done = [a for a in solves if "error" not in a]
    return {
        "seen": set(trace["names"]),
        "import": float(dur[select("cli.import")].sum()),
        "cli_self": float(self_time[select("cli.main")].sum()),
        "load": float(dur[select(LOAD)].sum()),
        "save": float(dur[select(SAVE)].sum()),
        "bytes": sum(a.get("bytes", 0) for a in attrs(LOAD, SAVE)),
        "draw": float(dur[select(DRAW)].sum()),
        "measure": float(dur[select(MEASURE)].sum()),
        "kept": [a["kept"] for a in attrs(MEASURE) if "kept" in a],
        "pair": float(dur[select(*PAIR)].sum()),
        "pair_calls": int(select(*PAIR).sum()),
        "side": max((a.get("side", 0) for a in done), default=0),
        "solve": float(dur[select(SOLVE)].sum()),
        "solve_self": float(self_time[select(SOLVE)].sum()),
        "iters": [a.get("iters", 0) for a in done],
        "converged": sum(bool(a.get("converged")) for a in done),
        "failures": len(solves) - len(done),
        "recover": float(dur[select(*RECOVER)].sum()),
        "sweep_self": float(self_time[select(*RECOVER, RUN_SWEEP)].sum()),
        "report": float(dur[select(*REPORT)].sum()),
    }


def summarize(traces: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics over the traced calls of one run.

    Returns (values, notes): a metric whose wrapped names are absent from
    the program, or that no call exercised, gets None and a note.
    """
    calls = [per_call(tr) for tr in traces]
    absent = set().union(*(tr["absent"] for tr in traces)) if traces else set()
    seen = set().union(*(c["seen"] for c in calls)) if calls else set()

    def med(key):
        return median(c[key] for c in calls)

    pair_s = sum(c["pair"] for c in calls)
    pairs = sum(c["pair_calls"] for c in calls) / 2.0
    solve_s = sum(c["solve"] for c in calls)
    solves = sum(len(c["iters"]) + c["failures"] for c in calls)
    solved = sum(len(c["iters"]) for c in calls)
    iters = sum(sum(c["iters"]) for c in calls)
    kept = [k for c in calls for k in c["kept"]]
    side = max((c["side"] for c in calls), default=0)
    flops_pair = 8.0 * side**3  # two s x s matmuls per 2D transform, two transforms
    bytes_pair = 4 * 3 * 8.0 * side**2  # four matmuls, each reads two and writes one s x s float64
    values = {
        "cli.import_s": med("import"),
        "cli.self_s": med("cli_self"),
        "signal.load_s": med("load"),
        "signal.save_s": med("save"),
        "signal.bytes": med("bytes"),
        "sampling.draw_mask_s": med("draw"),
        "sampling.measure_s": med("measure"),
        "sampling.kept": sum(kept) / len(kept) if kept else None,
        "transform.pair_us": 1e6 * pair_s / pairs if pairs else None,
        "transform.pairs": median(c["pair_calls"] / 2.0 for c in calls),
        "transform.share": pair_s / solve_s if solve_s else None,
        "transform.gflop_s": flops_pair * pairs / pair_s / 1e9 if pair_s else None,
        "transform.flops_per_pair_computed": flops_pair if side else None,
        "transform.bytes_per_pair_computed": bytes_pair if side else None,
        "solver.solve_s": med("solve"),
        "solver.self_s": med("solve_self"),
        "solver.iters": iters / solved if solved else None,
        "solver.iter_us": 1e6 * solve_s / iters if iters else None,
        "solver.converged_frac": sum(c["converged"] for c in calls) / solves if solves else None,
        "solver.failures": sum(c["failures"] for c in calls),
        "sweep.recover_s": med("recover"),
        "sweep.self_s": med("sweep_self"),
        "sweep.report_s": med("report"),
    }
    notes = {
        "transform.flops_per_pair_computed": "computed: 8*s^3",
        "transform.bytes_per_pair_computed": "computed: 4 matmuls x 3 s*s float64 arrays",
    }
    for name, (_, required, called) in PER_LAYER.items():
        gone = [n for n in dict.fromkeys(required + called) if n in absent]
        if gone and (set(gone) & set(required) or not set(called) - set(gone)):
            values[name] = None
            notes[name] = "absent: " + ", ".join(gone) + " not in the program"
        elif called and not any(n in seen for n in called):
            values[name] = None
            notes[name] = "absent: not called on this workload"
    return values, notes
