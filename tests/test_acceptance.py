"""Acceptance gate: one test per criterion, run with ``pytest -v -s``.

Each test prints a single PASS line once its assertions hold; a pytest
failure line is the FAIL signal.  Tolerances are fixed here and must not
be loosened.
"""

import itertools
import time

import numpy as np
import pytest

from _oracles import constraint_gap, naive_dct2, naive_tv, pipeline_measurements
from cstv.generators import gen_ecg_like
from cstv.sampling import draw_mask, measure
from cstv.solver import SolverConfig, divergence, grad, reconstruct, tv
from cstv.sweep import SweepSpec, mse, ratio_medians, recover_signal, run_sweep, write_report_csv
from cstv.transform import _dct2, _idct2

RATIO_GRID = tuple(round(0.30 + 0.05 * i, 2) for i in range(13))


def _image(side, rng):
    return rng.normal(size=(side, side))


def test_criterion_1_transform_correctness():
    rng = np.random.default_rng(2024)
    sides = [2, 3, 4, 8, 16, 64]
    worst_rt = 0.0
    count = 0
    for side in itertools.cycle(sides):
        if count >= 200:
            break
        img = _image(side, rng)
        back = _idct2(_dct2(img))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - img))))
        count += 1
    assert worst_rt <= 1e-10

    worst_oracle = 0.0
    for side in (2, 3, 4, 8):
        for _ in range(5):
            img = _image(side, rng)
            diff = _dct2(img) - naive_dct2(img)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(diff))))
    assert worst_oracle <= 1e-10
    print(f"\n[criterion 1] PASS transform round-trip max {worst_rt:.2e}, "
          f"naive-oracle max {worst_oracle:.2e} (tol 1e-10)")


def test_criterion_2_adjoint():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        side = 2 + i % 15
        x = rng.normal(size=(side, side))
        px, py = rng.normal(size=(side, side)), rng.normal(size=(side, side))
        px[-1, :] = 0.0
        py[:, -1] = 0.0
        gx, gy = grad(x)
        lhs = float(np.sum(gx * px + gy * py))
        rhs = float(np.sum(x * divergence(px, py)))
        scale = float(np.linalg.norm(x) * np.sqrt(np.sum(px**2 + py**2)))
        worst = max(worst, abs(lhs + rhs) / max(scale, 1e-300))
    assert worst <= 1e-10
    print(f"\n[criterion 2] PASS adjoint identity, worst relative defect {worst:.2e} (tol 1e-10)")


def test_criterion_3_tv_oracle():
    rng = np.random.default_rng(11)
    for side in (1, 2, 3, 5, 8, 16):
        x = rng.normal(size=(side, side))
        assert tv(x) == naive_tv(x)
    assert tv(np.full((7, 7), 4.2)) == 0.0
    assert tv(np.array([[0.0, 1.0], [0.0, 1.0]])) == 2.0
    print("\n[criterion 3] PASS tv equals naive evaluation exactly; "
          "tv(constant)=0; tv([[0,1],[0,1]])=2")


def test_criterion_4_full_sampling_identity():
    sig = gen_ecg_like(1000, bpm=60, fs=250, seed=3)  # padded to side 32
    recovered, result = recover_signal(sig, 1.0, seed=9, config=SolverConfig(max_iters=5))
    err = mse(sig, recovered)
    assert err <= 1e-10
    assert constraint_gap(result.image, pipeline_measurements(sig, 1.0, 9)) <= 1e-8
    print(f"\n[criterion 4] PASS full-sampling identity, mse {err:.2e} (tol 1e-10)")


def test_criterion_5_exact_recovery_oracle():
    img = np.zeros((16, 16))
    img[3:5, 4:7] = 2.0
    img[10:12, 9:12] = -2.0
    spectrum = _dct2(img)
    config = SolverConfig(max_iters=500, tol=1e-12)
    variance = float(np.var(img))
    worst_rel, worst_time = 0.0, 0.0
    for seed in range(5):
        meas = measure(spectrum, draw_mask(16, 0.3, seed))
        start = time.perf_counter()
        result = reconstruct(meas, config)
        elapsed = time.perf_counter() - start
        rel = float(np.mean((result.image - img) ** 2)) / variance
        assert result.iters_used <= 500
        assert elapsed <= 5.0
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
    assert worst_rel <= 1e-3
    print(f"\n[criterion 5] PASS two-block recovery at ratio 0.3, worst relative mse "
          f"{worst_rel:.2e} (tol 1e-3), worst run {worst_time:.2f}s (limit 5s)")


@pytest.mark.slow
def test_criterion_6_table_trend():
    # the paper's absolute table values are not reproducible (its recorded
    # signals are unpublished); the trend is checked instead
    start = time.perf_counter()
    signal = gen_ecg_like(4096, bpm=36.0, fs=4800.0, seed=0)
    variance = float(np.var(signal.samples))
    spec = SweepSpec(
        signal=signal,
        ratios=RATIO_GRID,
        seeds=tuple(range(9)),
        solver=SolverConfig(max_iters=2000, tol=1e-12),
        source="gen:ecg(n=4096,bpm=36,fs=4800,seed=0)",
    )
    rows = run_sweep(spec)
    elapsed = time.perf_counter() - start
    medians = dict(ratio_medians(rows))
    curve = [medians[r] for r in RATIO_GRID]

    inversions = sum(1 for a, b in zip(curve, curve[1:]) if b > a)
    assert inversions <= 1, f"median curve has {inversions} adjacent inversions: {curve}"
    assert medians[0.90] <= 0.01 * medians[0.30], (
        f"med(0.90)={medians[0.90]:.3e} not <= 1% of med(0.30)={medians[0.30]:.3e}"
    )
    assert medians[0.45] <= 0.10 * variance, (
        f"med(0.45)={medians[0.45]:.3e} not <= 10% of variance {variance:.3e}"
    )
    assert elapsed <= 300.0
    print(f"\n[criterion 6] PASS trend over {RATIO_GRID[0]}..{RATIO_GRID[-1]}: "
          f"inversions {inversions} (<=1), med(0.90)/med(0.30) "
          f"{medians[0.90] / medians[0.30]:.2e} (<=1e-2), med(0.45)/var "
          f"{medians[0.45] / variance:.3f} (<=0.1), wall {elapsed:.0f}s (<=300s)")


def test_criterion_7_determinism(tmp_path):
    spec = SweepSpec(
        signal=gen_ecg_like(1024, bpm=60.0, fs=360.0, seed=5),
        ratios=(0.4, 0.8),
        seeds=(1, 2, 3),
        solver=SolverConfig(max_iters=300),
        source="gen:ecg(n=1024,bpm=60,fs=360,seed=5)",
    )
    paths = [tmp_path / name for name in ("serial_1.csv", "serial_2.csv", "parallel.csv")]
    write_report_csv(run_sweep(spec), paths[0])
    write_report_csv(run_sweep(spec), paths[1])
    write_report_csv(run_sweep(spec, workers=3), paths[2])
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    print("\n[criterion 7] PASS byte-identical sweep CSV across two serial runs "
          "and one parallel run")


def test_criterion_8_mask_statistics():
    side, ratio, n_seeds = 8, 0.25, 10_000
    counts = np.zeros(side * side)
    for seed in range(n_seeds):
        counts[draw_mask(side, ratio, seed).kept_ranks] += 1
    freq = counts / n_seeds
    deviation = float(np.max(np.abs(freq - ratio)))
    assert deviation <= 0.05
    print(f"\n[criterion 8] PASS rank-inclusion frequency within ±{deviation:.4f} "
          f"of {ratio} over {n_seeds} seeds (tol ±0.05)")
