import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cstv.solver
import cstv.sweep
from cstv.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main, write_pgm
from cstv.generators import gen_ecg_like
from cstv.signal import Signal1D, load_signal_csv, reshape_to_image, save_signal_csv
from cstv.solver import SolverConfig, SolverFailure, load_solver_config
from cstv.sweep import blas_thread_settings, mse

SRC = Path(__file__).resolve().parent.parent / "src"


def env_with_src(**settings):
    """This environment with the settings and the checkout's src on PYTHONPATH, for a fresh interpreter."""
    return {**os.environ, **settings, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}


def run_cli(*args):
    return main(list(args))


def gen_csv(path, *gen_args):
    """Write a generated signal to path, as a sweep's ``--in`` reads it."""
    assert run_cli("gen", *gen_args, "--out", str(path)) == EXIT_OK
    return str(path)


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


def test_reconstruct_dump_images_and_residual_log(tmp_path, capsys):
    # n=256 fills a 16 x 16 image; n=1000 leaves 24 padding pixels of a 32 x 32
    # image, and its pressure samples lie far above the padding's zero
    for n, side, gen_args in ((256, 16, ("--kind", "ecg", "--fs", "64", "--bpm", "60", "--seed", "2")),
                              (1000, 32, ("--kind", "pressure", "--fs", "125", "--seed", "0"))):
        src = tmp_path / f"in{n}.csv"
        out = tmp_path / f"out{n}.csv"
        imgdir = tmp_path / f"imgs{n}"
        log = tmp_path / f"residuals{n}.csv"
        imgdir.mkdir()
        run_cli("gen", *gen_args, "--n", str(n), "--out", str(src))
        assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.5", "--seed", "1",
                       "--out", str(out), "--dump-images", str(imgdir),
                       "--residual-log", str(log)) == EXIT_OK

        header = f"P5\n{side} {side}\n255\n".encode("ascii")
        for name in ("original.pgm", "reconstructed.pgm"):
            data = (imgdir / name).read_bytes()
            assert data.startswith(header)
            assert len(data) == len(header) + side * side
            # the padding is black
            pixels = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(side, side)
            assert np.all(pixels.reshape(-1, order="F")[n:] == 0)
        bounds = json.loads((imgdir / "bounds.json").read_text())
        assert set(bounds) == {"original", "reconstructed"}
        # the images are normalized over the signals' samples, not the padding
        for name, path in (("original", src), ("reconstructed", out)):
            samples = load_signal_csv(path).samples
            assert bounds[name] == {"min": samples.min(), "max": samples.max()}

        summary = dict(field.split("=") for field in capsys.readouterr().out.split())
        lines = log.read_text().splitlines()
        assert lines[0] == "iteration,primal,primal_scale,dual,dual_scale"
        assert len(lines) == int(summary["iters"]) + 1
        # the last row of a converged solve passes the default stopping test
        primal, primal_scale, dual, dual_scale = map(float, lines[-1].split(",")[1:])
        tol = SolverConfig().tol
        assert (primal <= tol * primal_scale and dual <= tol * dual_scale) == (summary["converged"] == "True")


def test_reconstruct_with_solver_config(tmp_path, capsys):
    src = tmp_path / "in.csv"
    cfg = tmp_path / "solver.txt"
    out = tmp_path / "out.csv"
    run_cli("gen", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60",
            "--seed", "2", "--out", str(src))
    cfg.write_text("max_iters = 20\n")
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.4", "--seed", "0",
                   "--solver", str(cfg), "--out", str(out)) == EXIT_OK
    # the signal file and the config file may each start with a UTF-8 byte-order mark
    expected = out.read_bytes()
    for path in (src, cfg):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.4", "--seed", "0",
                   "--solver", str(cfg), "--out", str(out)) == EXIT_OK
    assert out.read_bytes() == expected
    # key = value lines are the one config syntax
    out.unlink()
    for text in ('{"max_iters": 20}\n', "tol: 1e-7\n"):
        cfg.write_text(text)
        assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.4", "--seed", "0",
                       "--solver", str(cfg), "--out", str(out)) == EXIT_USAGE
        assert "cannot parse config line" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("text,message", [("tol = inf\n", "tol must be finite"),
                                          ("tol = 1e400\n", "tol must be finite"),
                                          ("max_iters = 1.5\n", "cannot parse max_iters = '1.5'"),
                                          ("tol = 1e-4\ntol = 1e-12\n", "config key tol appears twice")])
def test_reconstruct_rejects_bad_config_values(tmp_path, capsys, text, message):
    src = gen_csv(tmp_path / "in.csv", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60", "--seed", "2")
    cfg = tmp_path / "solver.txt"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert run_cli("reconstruct", "--in", src, "--ratio", "0.4", "--seed", "0",
                   "--solver", str(cfg), "--out", str(out)) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_orders_unsorted_flags_like_its_rows(tmp_path):
    src = gen_csv(tmp_path / "sig.csv", "--kind", "ecg", "--n", "64", "--fs", "64", "--bpm", "60", "--seed", "1")
    out = tmp_path / "report.csv"
    assert run_cli("sweep", "--in", src, "--ratios", "0.9,0.3", "--seeds", "1,0", "--workers", "1",
                   "--out", str(out)) == EXIT_OK
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert rows == [["0.3", "0"], ["0.3", "1"], ["0.9", "0"], ["0.9", "1"]]
    sidecar = json.loads((tmp_path / "report.json").read_text())
    assert sidecar["ratios"] == [0.3, 0.9] and sidecar["seeds"] == [0, 1]
    assert list(sidecar["median_mse"]) == ["0.3", "0.9"]


def test_sweep_writes_csv_and_sidecar(tmp_path):
    src = gen_csv(tmp_path / "sig.csv", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60",
                  "--seed", "1")
    out = tmp_path / "report.csv"
    assert run_cli("sweep", "--in", src, "--ratios", "0.5,1.0", "--seeds", "1,2",
                   "--out", str(out)) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "ratio,seed,mse,iters_used,converged"
    assert len(lines) == 5
    sidecar = json.loads((tmp_path / "report.json").read_text())
    assert sidecar["ratios"] == [0.5, 1.0]
    assert sidecar["seeds"] == [1, 2]
    assert "solver" in sidecar and "median_mse" in sidecar


def test_sweep_prints_the_medians_its_sidecar_holds(tmp_path, monkeypatch, capsys):
    src = gen_csv(tmp_path / "sig.csv", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60", "--seed", "1")
    recover = cstv.sweep.recover_signal

    def fail_at_07(signal, ratio, seed, config=None):
        if ratio == 0.7:
            raise SolverFailure(2)
        return recover(signal, ratio, seed, config)

    monkeypatch.setattr("cstv.sweep.recover_signal", fail_at_07)
    assert run_cli("sweep", "--in", src, "--ratios", "0.5,0.7", "--seeds", "1,2", "--workers", "1",
                   "--out", str(tmp_path / "report.csv")) == EXIT_OK
    sidecar = json.loads((tmp_path / "report.json").read_text())

    def shown(key, ratio):
        # the sidecar writes a ratio whose rows all failed as null, stdout as nan
        return "nan" if sidecar[key][ratio] is None else repr(sidecar[key][ratio])

    printed = [f"ratio={float(r):.2f} median_mse={shown('median_mse', r)} "
               f"median_start_mse={shown('median_start_mse', r)}" for r in sidecar["median_mse"]]
    assert capsys.readouterr().out.splitlines() == printed
    assert printed[1] == "ratio=0.70 median_mse=nan median_start_mse=nan"
    assert sidecar["median_mse"]["0.5"] is not None and sidecar["median_start_mse"]["0.5"] is not None


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
    as_lines = tmp_path / "solver.cfg"
    as_lines.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    assert dataclasses.asdict(load_solver_config(as_lines)) == values

    src = gen_csv(tmp_path / "sig.csv", "--kind", "ecg", "--n", "64", "--fs", "64", "--bpm", "60",
                  "--seed", "0")
    out = tmp_path / "report.csv"
    assert run_cli("sweep", "--in", src, "--ratios", "1.0", "--seeds", "1", "--solver", str(as_lines),
                   "--out", str(out)) == EXIT_OK
    assert json.loads((tmp_path / "report.json").read_text())["solver"] == values


@pytest.mark.parametrize("ratios,seeds,workers", [("0.5,1.0", "1,2", "0"), ("0.5,1.0", "1,2", "-2"),
                                                  ("0.5,0.5", "1,2", "1"), ("0.5,1.0", "1,1", "1")])
def test_sweep_bad_workers_or_repeated_values_are_usage_errors(tmp_path, ratios, seeds, workers):
    src = gen_csv(tmp_path / "sig.csv", "--kind", "ecg", "--n", "64", "--fs", "64", "--seed", "0")
    out = tmp_path / "r.csv"
    assert run_cli("sweep", "--in", src, "--ratios", ratios,
                   "--seeds", seeds, "--workers", workers, "--out", str(out)) == EXIT_USAGE
    assert not out.exists()


def test_sweep_parallel_serial_identical_bytes(tmp_path):
    src = gen_csv(tmp_path / "sig.csv", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60",
                  "--seed", "1")
    args = ["sweep", "--in", src, "--ratios", "0.5,1.0", "--seeds", "1,2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--workers", "1", "--out", str(a)) == EXIT_OK
    assert run_cli(*args, "--workers", "2", "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    # the sidecars differ only in how the rows ran
    serial, parallel = (json.loads(p.with_suffix(".json").read_text()) for p in (a, b))
    assert (serial.pop("workers"), parallel.pop("workers")) == (1, 2)
    del serial["wall_time_rows"], parallel["wall_time_rows"]
    assert serial == parallel


def test_sweep_sidecar_records_its_processes_and_blas_threads(tmp_path, monkeypatch):
    src = gen_csv(tmp_path / "sig.csv", "--kind", "ecg", "--n", "64", "--fs", "64", "--seed", "0")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("GOTO_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "r.csv"
    # one (ratio, seed) pair: a second process would have no row to solve
    assert run_cli("sweep", "--in", src, "--ratios", "1.0", "--seeds", "1", "--workers", "4",
                   "--out", str(out)) == EXIT_OK
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["workers"] == 1
    assert sidecar["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    env = sidecar["env"]
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"} and all(isinstance(v, str) for v in env["blas"].values())
    # the iterations' precision follows tol
    assert sidecar["solve_dtype"] == "float32"
    tight = tmp_path / "tight.cfg"
    tight.write_text("tol = 1e-12\n")
    assert run_cli("sweep", "--in", src, "--ratios", "1.0", "--seeds", "1", "--solver", str(tight),
                   "--out", str(out)) == EXIT_OK
    assert json.loads(out.with_suffix(".json").read_text())["solve_dtype"] == "float64"


def test_sweep_default_workers_write_the_serial_bytes(tmp_path):
    # with one BLAS thread a process, the default runs a process per CPU
    src = gen_csv(tmp_path / "sig.csv", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60",
                  "--seed", "1")
    env = env_with_src(OPENBLAS_NUM_THREADS="1")
    env.pop("OMP_NUM_THREADS", None)
    args = [sys.executable, "-m", "cstv.cli", "sweep", "--in", src, "--ratios", "0.5,1.0", "--seeds", "1,2"]
    runs = {"default": (), "serial": ("--workers", "1")}
    for name, extra in runs.items():
        proc = subprocess.run([*args, *extra, "--out", str(tmp_path / f"{name}.csv")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    used = json.loads((tmp_path / "default.json").read_text())["workers"]
    assert used == min(len(os.sched_getaffinity(0)), 4)


# a sweep reads its signal from --in only: --kind and the generator's flags
# belong to gen
@pytest.mark.parametrize("flags", [("--n", "16"), ("--fs", "3"), ("--bpm", "60"), ("--gen-seed", "0"),
                                   ("--kind", "ecg", "--n", "16", "--fs", "3", "--bpm", "60", "--gen-seed", "0"),
                                   ("--kind", "ecg")])
def test_sweep_from_file_rejects_generator_flags(tmp_path, capsys, flags):
    src, out = tmp_path / "sig.csv", tmp_path / "rep.csv"
    save_signal_csv(Signal1D(np.arange(25.0)), src)
    assert run_cli("sweep", "--in", str(src), *flags, "--ratios", "1.0", "--seeds", "3",
                   "--out", str(out)) == EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sig.csv"]
    err = capsys.readouterr().err
    assert "cstv: error: unrecognized arguments: " in err
    assert all(flag in err for flag in flags[::2])


def written_paths(tmp_path):
    return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))


# the JSON sidecar would overwrite rep.json, and in the last two cases the
# input; nodir does not exist, and made is an existing directory
@pytest.mark.parametrize("src,out,code", [
    pytest.param("sig.csv", "rep.json", EXIT_USAGE, id="rep.json-1"),
    pytest.param("sig.csv", "nodir/r.csv", EXIT_IO, id="nodir/r.csv-3"),
    pytest.param("sig.csv", "made", EXIT_IO, id="made-3"),
    pytest.param("sig.csv", "sig.csv", EXIT_USAGE, id="out-is-the-input"),
    pytest.param("c.json", "c.csv", EXIT_USAGE, id="sidecar-is-the-input"),
])
def test_sweep_checks_its_out_path_before_solving(tmp_path, monkeypatch, src, out, code):
    gen_csv(tmp_path / src, "--kind", "ecg", "--n", "64", "--fs", "64", "--seed", "0")
    signal_bytes = (tmp_path / src).read_bytes()
    (tmp_path / "made").mkdir()
    monkeypatch.setattr("cstv.cli.run_sweep", lambda *a, **k: pytest.fail("run_sweep was called"))
    assert run_cli("sweep", "--in", str(tmp_path / src), "--ratios", "1.0", "--seeds", "1",
                   "--out", str(tmp_path / out)) == code
    assert written_paths(tmp_path) == sorted(["made", src])
    assert (tmp_path / src).read_bytes() == signal_bytes


# nodir does not exist, made is an existing directory and sig.csv, the input,
# a file; the other paths are valid, and no file is written
@pytest.mark.parametrize("out,log,images,code", [
    pytest.param("nodir/o.csv", "res.csv", None, EXIT_IO, id="nodir/o.csv-res.csv"),
    pytest.param("o.csv", "nodir/res.csv", None, EXIT_IO, id="o.csv-nodir/res.csv"),
    pytest.param("o.csv", "o.csv", None, EXIT_USAGE, id="out-is-the-residual-log"),
    pytest.param("made", "res.csv", None, EXIT_IO, id="out-is-a-directory"),
    pytest.param("o.csv", "res.csv", "sig.csv", EXIT_IO, id="dump-images-is-a-file"),
    pytest.param("sig.csv", "res.csv", None, EXIT_USAGE, id="out-is-the-input"),
    pytest.param("o.csv", "sig.csv", None, EXIT_USAGE, id="residual-log-is-the-input"),
    pytest.param("made/original.pgm", "res.csv", "made", EXIT_USAGE, id="out-is-a-dumped-image"),
    pytest.param("x", "res.csv", "x", EXIT_IO, id="out-is-the-missing-dump-images-directory"),
    pytest.param("o.csv", "res.csv", "nodir", EXIT_IO, id="dump-images-directory-is-missing"),
])
def test_reconstruct_checks_its_output_paths_before_solving(tmp_path, monkeypatch, out, log, images, code):
    src = gen_csv(tmp_path / "sig.csv", "--kind", "ecg", "--n", "64", "--fs", "64", "--seed", "0")
    signal_bytes = (tmp_path / "sig.csv").read_bytes()
    (tmp_path / "made").mkdir()
    monkeypatch.setattr("cstv.cli.recover_signal", lambda *a, **k: pytest.fail("recover_signal was called"))
    dump = ("--dump-images", str(tmp_path / images)) if images else ()
    assert run_cli("reconstruct", "--in", src, "--ratio", "0.5", "--seed", "1", "--out", str(tmp_path / out),
                   "--residual-log", str(tmp_path / log), *dump) == code
    assert written_paths(tmp_path) == ["made", "sig.csv"]
    assert (tmp_path / "sig.csv").read_bytes() == signal_bytes


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
        capture_output=True, env=env_with_src(),
    )
    assert proc.returncode == EXIT_USAGE
    assert b"error: argument --kind" in proc.stderr


def test_help_returns_ok(capsys):
    assert run_cli("--help") == EXIT_OK
    assert "usage: cstv" in capsys.readouterr().out


def test_sweep_help_names_every_blas_thread_variable(capsys):
    assert run_cli("sweep", "--help") == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    assert all(var in text for var in blas_thread_settings())


# the missing --in would exit 3: exit 1 shows the flag was checked before any read
@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--ratio", "0"), ("--ratio", "1.5"), ("--ratio", "nan")])
def test_reconstruct_checks_seed_and_ratio_before_reading(tmp_path, capsys, flag, value):
    args = {"--ratio": "0.5", "--seed": "1", flag: value}
    assert run_cli("reconstruct", "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv"),
                   *(item for pair in args.items() for item in pair)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"cstv: invalid arguments: {flag} ") and value in err
    assert list(tmp_path.iterdir()) == []


# the missing --in would exit 3: exit 1 shows the flag was checked before any read
@pytest.mark.parametrize("flag,value", [("--ratios", "1.5"), ("--ratios", "0"), ("--ratios", "0.5,0.5"),
                                        ("--seeds", "-1"), ("--seeds", "2,2"), ("--workers", "0")])
def test_sweep_checks_its_flags_before_reading(tmp_path, capsys, flag, value):
    args = {"--ratios": "0.5", "--seeds": "1", "--workers": "1", flag: value}
    assert run_cli("sweep", "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r.csv"),
                   *(item for pair in args.items() for item in pair)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"cstv: invalid arguments: {flag} ")
    assert list(tmp_path.iterdir()) == []


def test_io_error_exit_code(tmp_path):
    assert run_cli("reconstruct", "--in", str(tmp_path / "missing.csv"), "--ratio", "0.5",
                   "--seed", "1", "--out", str(tmp_path / "o.csv")) == EXIT_IO


def test_malformed_signal_file_is_io_error(tmp_path):
    bad = tmp_path / "bad.csv"
    # one comma-separated row is not a signal file: one value goes on each line;
    # nor is a file that is not UTF-8 text
    for data in (b"1.0\nnot-a-number\n", b"1.0,2.0,3.0,4.0\n", b"\xff1.0\n2.0\n"):
        bad.write_bytes(data)
        assert run_cli("reconstruct", "--in", str(bad), "--ratio", "0.5", "--seed", "1",
                       "--out", str(tmp_path / "o.csv")) == EXIT_IO
        assert run_cli("sweep", "--in", str(bad), "--ratios", "0.5", "--seeds", "1",
                       "--out", str(tmp_path / "r.csv")) == EXIT_IO
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    src = tmp_path / "in.csv"
    run_cli("gen", "--kind", "ecg", "--n", "64", "--fs", "64", "--bpm", "60",
            "--seed", "1", "--out", str(src))

    def explode(signal, ratio, seed, config=None):
        raise SolverFailure(3)

    monkeypatch.setattr("cstv.cli.recover_signal", explode)
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.5", "--seed", "1",
                   "--out", str(tmp_path / "o.csv")) == EXIT_SOLVER


def test_failed_solve_writes_its_residual_log(tmp_path, monkeypatch):
    src, out, log = tmp_path / "in.csv", tmp_path / "o.csv", tmp_path / "residuals.csv"
    run_cli("gen", "--kind", "ecg", "--n", "256", "--fs", "64", "--bpm", "60",
            "--seed", "2", "--out", str(src))
    divergence_steps = cstv.solver._divergence_steps
    monkeypatch.setattr("cstv.solver._divergence_steps",
                        lambda gx, gy, div: divergence_steps(gx, gy, div) + [(div.fill, (np.inf,))])
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.5", "--seed", "1",
                   "--out", str(out), "--residual-log", str(log)) == EXIT_SOLVER
    assert not out.exists()
    header, row = log.read_text().splitlines()
    assert header == "iteration,primal,primal_scale,dual,dual_scale"
    assert row.startswith("1,") and row.endswith(",inf,inf")


# the exit code and this message report an overflow, and numpy prints no warning
FAILURE_MESSAGE = "cstv: solver failure: solver diverged at iteration 1\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_solve_exits_with_solver_failure(tmp_path, capsys):
    src = tmp_path / "huge.csv"
    save_signal_csv(Signal1D(gen_ecg_like(1000, bpm=60, fs=250, seed=0).samples * 2e306), src)
    out = tmp_path / "o.csv"
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.5", "--seed", "1",
                   "--out", str(out)) == EXIT_SOLVER
    assert not out.exists()
    assert capsys.readouterr().err == FAILURE_MESSAGE


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text", [
    # the mean overflows to inf, so the centred samples are not finite
    pytest.param("1e308\n1.5e308\n1e308\n1.2e308\n", id="mean-overflows"),
    # the mean is 0 and the samples are finite, but their DCT overflows
    pytest.param("1.7e308\n-1.7e308\n1.7e308\n-1.7e308\n", id="spectrum-overflows"),
])
def test_samples_near_float_max_exit_with_solver_failure(tmp_path, capsys, text):
    src, out = tmp_path / "near_max.csv", tmp_path / "o.csv"
    src.write_text(text)
    assert run_cli("reconstruct", "--in", str(src), "--ratio", "0.5", "--seed", "1",
                   "--out", str(out)) == EXIT_SOLVER
    assert not out.exists()
    assert capsys.readouterr().err == FAILURE_MESSAGE


def test_import_leaves_the_process_pool_unloaded():
    # only a parallel sweep needs it, and loading it slows every start-up
    code = "import sys, cstv.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env_with_src()).returncode == 0


def test_a_sweep_call_leaves_numpy_ma_unloaded(tmp_path):
    # np.median would import it; loading it costs every sweep call
    src = gen_csv(tmp_path / "sig.csv", "--kind", "ecg", "--n", "64", "--fs", "64", "--bpm", "60", "--seed", "1")
    argv = ["sweep", "--in", src, "--ratios", "0.5,1.0", "--seeds", "1,2", "--workers", "1",
            "--out", str(tmp_path / "o.csv")]
    code = f"import sys, cstv.cli; assert cstv.cli.main({argv!r}) == 0; print('numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env_with_src(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_write_pgm_range_beyond_the_float_maximum(tmp_path):
    # hi - lo overflows, so the samples are normalized from halves, with no
    # RuntimeWarning; a range that fits keeps the direct formula's pixels
    p = tmp_path / "big.pgm"
    assert write_pgm(np.array([1e308, -1e308, 0.0, 0.0]), p) == (-1e308, 1e308)
    assert p.read_bytes().endswith(bytes([255, 128, 0, 128]))
    samples = np.random.default_rng(0).standard_normal(64) * 1e300
    lo, hi = write_pgm(samples, p)
    pixels = reshape_to_image(np.round((samples - lo) / (hi - lo) * 255.0)).astype(np.uint8)
    assert p.read_bytes().endswith(pixels.tobytes())


def test_write_pgm_flat_image(tmp_path):
    p = tmp_path / "flat.pgm"
    lo, hi = write_pgm(np.full(16, 7.0), p)
    assert lo == hi == 7.0
    data = p.read_bytes()
    assert data.endswith(b"\x00" * 16)
