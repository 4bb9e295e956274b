import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from cstv.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main, write_pgm
from cstv.generators import gen_ecg_like
from cstv.signal import Signal1D, load_signal_csv, save_signal_csv
from cstv.solver import SolverConfig, SolverFailure, load_solver_config
from cstv.sweep import mse


def run_cli(*args):
    return main(list(args))


def test_gen_writes_loadable_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("gen", "--kind", "ecg", "--n", "500", "--fs", "250", "--bpm", "60",
                   "--seed", "3", "--out", str(out1)) == EXIT_OK
    assert run_cli("gen", "--kind", "ecg", "--n", "500", "--fs", "250", "--bpm", "60",
                   "--seed", "3", "--out", str(out2)) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert len(load_signal_csv(out1)) == 500


@pytest.mark.parametrize("kind", ["pressure", "respiration"])
def test_gen_other_kinds(tmp_path, kind):
    out = tmp_path / "sig.csv"
    assert run_cli("gen", "--kind", kind, "--n", "200", "--fs", "50", "--seed", "1",
                   "--out", str(out)) == EXIT_OK
    assert len(load_signal_csv(out)) == 200


def test_reconstruct_full_ratio_roundtrip(tmp_path):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    run_cli("gen", "--kind", "ecg", "--n", "400", "--fs", "200", "--bpm", "72",
            "--seed", "2", "--out", str(src))
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "1.0", "--seed", "1",
                   "--out", str(out)) == EXIT_OK
    original = load_signal_csv(src)
    recovered = load_signal_csv(out)
    assert mse(original, recovered) <= 1e-10


def test_reconstruct_dump_images_and_residual_log(tmp_path):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    imgdir = tmp_path / "imgs"
    log = tmp_path / "residuals.csv"
    run_cli("gen", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60",
            "--seed", "2", "--out", str(src))
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.5", "--seed", "1",
                   "--out", str(out), "--dump-images", str(imgdir),
                   "--residual-log", str(log)) == EXIT_OK

    for name in ("original.pgm", "reconstructed.pgm"):
        data = (imgdir / name).read_bytes()
        assert data.startswith(b"P5\n16 16\n255\n")
        assert len(data) == len(b"P5\n16 16\n255\n") + 256
    bounds = json.loads((imgdir / "bounds.json").read_text())
    assert set(bounds) == {"original", "reconstructed"}
    assert bounds["original"]["min"] <= bounds["original"]["max"]

    lines = log.read_text().splitlines()
    assert lines[0] == "iteration,rel_change,tv"
    assert len(lines) > 1


def test_reconstruct_with_solver_config(tmp_path):
    src = tmp_path / "in.csv"
    cfg = tmp_path / "solver.txt"
    out = tmp_path / "out.csv"
    run_cli("gen", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60",
            "--seed", "2", "--out", str(src))
    cfg.write_text("max_iters = 20\n")
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.4", "--seed", "0",
                   "--solver", str(cfg), "--out", str(out)) == EXIT_OK


def test_sweep_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli("sweep", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60",
                   "--gen-seed", "1", "--ratios", "0.5,1.0", "--seeds", "1,2",
                   "--out", str(out)) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "ratio,seed,mse,iters_used,converged"
    assert len(lines) == 5
    sidecar = json.loads((tmp_path / "report.json").read_text())
    assert sidecar["ratios"] == [0.5, 1.0]
    assert sidecar["seeds"] == [1, 2]
    assert "solver" in sidecar and "median_mse" in sidecar


def test_every_solver_field_round_trips_through_config_files_and_sidecar(tmp_path):
    # a non-default value per field, derived from the field's default so a
    # new field is covered without editing this test
    values = {}
    for f in dataclasses.fields(SolverConfig):
        if type(f.default) is int:
            values[f.name] = f.default + 1
        elif type(f.default) is float:
            values[f.name] = f.default / 2
        else:
            pytest.fail(f"no non-default value rule for field {f.name}: {f.default!r}")
        assert values[f.name] != f.default
    as_json = tmp_path / "solver.json"
    as_json.write_text(json.dumps(values))
    as_lines = tmp_path / "solver.cfg"
    as_lines.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    for path in (as_json, as_lines):
        assert dataclasses.asdict(load_solver_config(path)) == values

    out = tmp_path / "report.csv"
    assert run_cli("sweep", "--kind", "ecg", "--n", "64", "--fs", "64", "--bpm", "60",
                   "--ratios", "1.0", "--seeds", "1", "--solver", str(as_lines),
                   "--out", str(out)) == EXIT_OK
    assert json.loads((tmp_path / "report.json").read_text())["solver"] == values


@pytest.mark.parametrize("ratios,seeds,workers", [("0.5,1.0", "1,2", "0"), ("0.5,1.0", "1,2", "-2"),
                                                  ("0.5,0.5", "1,2", "1"), ("0.5,1.0", "1,1", "1")])
def test_sweep_bad_workers_or_repeated_values_are_usage_errors(tmp_path, ratios, seeds, workers):
    out = tmp_path / "r.csv"
    assert run_cli("sweep", "--kind", "ecg", "--n", "64", "--fs", "64", "--ratios", ratios,
                   "--seeds", seeds, "--workers", workers, "--out", str(out)) == EXIT_USAGE
    assert not out.exists()


def test_sweep_parallel_serial_identical_bytes(tmp_path):
    args = ["sweep", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60",
            "--gen-seed", "1", "--ratios", "0.5,1.0", "--seeds", "1,2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == EXIT_OK
    assert run_cli(*args, "--workers", "2", "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_from_file(tmp_path):
    src = tmp_path / "sig.csv"
    out = tmp_path / "rep.csv"
    run_cli("gen", "--kind", "respiration", "--n", "225", "--fs", "25", "--seed", "4",
            "--out", str(src))
    assert run_cli("sweep", "--in", str(src), "--ratios", "1.0", "--seeds", "3",
                   "--out", str(out)) == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[2]) <= 1e-10


def test_usage_error_exit_code():
    assert run_cli("gen", "--kind", "ecg", "--n", "-5", "--fs", "250",
                   "--seed", "1", "--out", "/tmp/x.csv") == EXIT_USAGE


def test_usage_error_from_argparse_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cstv.cli", "gen", "--kind", "bogus"],
        capture_output=True,
    )
    assert proc.returncode == EXIT_USAGE


def test_io_error_exit_code(tmp_path):
    assert run_cli("reconstruct", "--in", str(tmp_path / "missing.csv"), "--ratio", "0.5",
                   "--seed", "1", "--out", str(tmp_path / "o.csv")) == EXIT_IO


def test_malformed_signal_file_is_io_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnot-a-number\n")
    assert run_cli("reconstruct", "--in", str(bad), "--ratio", "0.5", "--seed", "1",
                   "--out", str(tmp_path / "o.csv")) == EXIT_IO


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    src = tmp_path / "in.csv"
    run_cli("gen", "--kind", "ecg", "--n", "64", "--fs", "64", "--bpm", "60",
            "--seed", "1", "--out", str(src))

    def explode(signal, ratio, seed, config=None):
        raise SolverFailure(3)

    monkeypatch.setattr("cstv.cli.recover_signal", explode)
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.5", "--seed", "1",
                   "--out", str(tmp_path / "o.csv")) == EXIT_SOLVER


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_solve_exits_with_solver_failure(tmp_path):
    src = tmp_path / "huge.csv"
    save_signal_csv(Signal1D(gen_ecg_like(1000, bpm=60, fs=250, seed=0).samples * 1e200), src)
    out = tmp_path / "o.csv"
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.5", "--seed", "1",
                   "--out", str(out)) == EXIT_SOLVER
    assert not out.exists()


def test_write_pgm_flat_image(tmp_path):
    p = tmp_path / "flat.pgm"
    lo, hi = write_pgm(np.full((4, 4), 7.0), p)
    assert lo == hi == 7.0
    data = p.read_bytes()
    assert data.endswith(b"\x00" * 16)
