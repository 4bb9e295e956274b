"""The benchmark's traced run still yields every per-layer metric it declares.

``bench/traced_cli.py`` wraps names of the cstv modules; a renamed or
deleted name leaves its metric None.  This runs the tracer as the benchmark
does, in a fresh process, on a tiny sweep and a tiny reconstruct.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cstv.generators import gen_ecg_like
from cstv.signal import save_signal_csv

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.mark.parametrize("command", [
    ("sweep", "--ratios", "0.5,1.0", "--seeds", "1,2"),
    # the tracer records this process only, which must still solve rows
    ("sweep", "--ratios", "0.5,1.0", "--seeds", "1,2", "--workers", "2"),
    ("reconstruct", "--ratio", "0.5", "--seed", "1"),
])
def test_traced_run_yields_every_per_layer_metric(tmp_path, command):
    src = tmp_path / "ecg.csv"
    save_signal_csv(gen_ecg_like(256, bpm=60, fs=64, seed=1), src)
    spans = tmp_path / "spans.npz"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *command,
         "--in", str(src), "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    values, notes = layers.summarize([layers.load(spans)])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the trace.* metrics compare traced with untraced calls, which bench/run.py does itself
    missing = {m["name"]: notes.get(m["name"]) for m in declared
               if not m["name"].startswith("trace.") and values.get(m["name"]) is None}
    assert missing == {}
