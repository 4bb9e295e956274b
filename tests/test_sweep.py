import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cstv.sweep as sweep_mod
from _oracles import constraint_gap, pipeline_measurements
from cstv.generators import gen_ecg_like
from cstv.signal import Signal1D
from cstv.solver import SolverConfig, SolverFailure, tv
from cstv.sweep import (SweepSpec, mse, ratio_medians, recover_signal, run_sweep, write_report_csv,
                        write_report_sidecar)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def test_mse_examples():
    assert mse(Signal1D([1, 2, 3]), Signal1D([1, 2, 3])) == 0.0
    assert mse(Signal1D([0, 0]), Signal1D([1, 1])) == 1.0
    assert mse(Signal1D([0, 3]), Signal1D([4, 3])) == 8.0
    # the sum of the squares, or a square itself, overflows, but the mean fits
    assert mse(Signal1D(np.full(4, 1e154)), Signal1D(np.zeros(4))) == pytest.approx(1e308, rel=1e-15)
    assert mse(Signal1D([2e154, 0, 0, 0]), Signal1D(np.zeros(4))) == pytest.approx(1e308, rel=1e-15)


def test_mse_length_mismatch():
    with pytest.raises(ValueError):
        mse(Signal1D([1, 2]), Signal1D([1, 2, 3]))


@given(arrays(np.float64, st.integers(1, 64), elements=finite), st.integers(0, 100))
@settings(max_examples=50)
def test_mse_nonnegative_and_zero_iff_identical(samples, seed):
    a = Signal1D(samples)
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=samples.size)
    b = Signal1D(samples + noise)
    assert mse(a, a) == 0.0
    value = mse(a, b)
    assert value >= 0.0
    if np.any(noise != 0.0):
        assert value > 0.0


def test_recover_full_ratio_is_exact():
    sig = gen_ecg_like(1000, bpm=60, fs=250, seed=0)  # padded case, side 32
    recovered, result = recover_signal(sig, 1.0, seed=5, config=SolverConfig(max_iters=3))
    assert mse(sig, recovered) <= 1e-10
    assert constraint_gap(result.image, pipeline_measurements(sig, 1.0, 5)) <= 1e-8


def test_recover_zero_signal_is_zero():
    sig = Signal1D(np.zeros(100))
    recovered, _ = recover_signal(sig, 0.35, seed=1)
    assert mse(sig, recovered) == 0.0


def test_recover_restores_signal_mean_when_dc_unmeasured():
    # mask seed chosen so rank 0 is not kept; the pipeline's demeaning must
    # keep the output mean at the input mean anyway
    base = gen_ecg_like(256, bpm=60, fs=64, seed=0)
    sig = Signal1D(base.samples + 25.0)
    from cstv.sampling import draw_mask

    seed = next(s for s in range(100) if 0 not in draw_mask(16, 0.3, s).kept_ranks)
    recovered, _ = recover_signal(sig, 0.3, seed=seed, config=SolverConfig(max_iters=50))
    assert float(np.mean(recovered.samples)) == pytest.approx(25.0 + float(np.mean(base.samples)), abs=1e-9)


def small_spec(**overrides):
    defaults = dict(
        signal=gen_ecg_like(256, bpm=60, fs=64, seed=1),
        ratios=(0.4, 1.0),
        seeds=(1, 2),
        solver=SolverConfig(max_iters=60),
        source="test",
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        small_spec(ratios=())
    with pytest.raises(ValueError):
        small_spec(ratios=(0.0, 0.5))
    with pytest.raises(ValueError):
        small_spec(seeds=())


@pytest.mark.parametrize("overrides", [dict(ratios=(0.5, 0.5)), dict(seeds=(1, 1))])
def test_sweep_spec_rejects_duplicate_ratios_or_seeds(overrides):
    with pytest.raises(ValueError, match="distinct"):
        small_spec(**overrides)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers,pool_sizes", [(1, []), (2, [2]), (64, [4])])
def test_sweep_pool_is_capped_at_the_job_count(monkeypatch, workers, pool_sizes):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    # run_sweep imports the pool class when it needs one, so it is patched at its source
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    rows = run_sweep(small_spec(), workers=workers)  # 2 ratios x 2 seeds = 4 jobs
    assert RecordingPool.sizes == pool_sizes
    assert len(rows) == 4


def test_sweep_rows_are_sorted_and_complete():
    rows = run_sweep(small_spec())
    assert [(r.ratio, r.seed) for r in rows] == [(0.4, 1), (0.4, 2), (1.0, 1), (1.0, 2)]
    assert all(r.mse >= 0.0 for r in rows)
    full = [r for r in rows if r.ratio == 1.0]
    assert all(r.mse <= 1e-10 for r in full)


def test_sweep_zero_signal_all_rows_zero():
    spec = small_spec(signal=Signal1D(np.zeros(256)))
    rows = run_sweep(spec)
    assert all(r.mse == 0.0 for r in rows)


def test_sweep_deterministic_and_parallel_equivalent():
    spec = small_spec()
    a = run_sweep(spec, workers=1)
    b = run_sweep(spec, workers=2)
    for ra, rb in zip(a, b):
        assert (ra.ratio, ra.seed, ra.mse, ra.iters_used, ra.converged) == (
            rb.ratio,
            rb.seed,
            rb.mse,
            rb.iters_used,
            rb.converged,
        )
    assert ratio_medians(a) == ratio_medians(b)


def test_report_csv_bytes_are_reproducible(tmp_path):
    spec = small_spec()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(run_sweep(spec), p1)
    write_report_csv(run_sweep(spec, workers=2), p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "ratio,seed,mse,iters_used,converged"


def test_failed_rows_marked_nan_and_sweep_continues(tmp_path, monkeypatch):
    def explode(meas, config=None):
        raise SolverFailure(7)

    monkeypatch.setattr(sweep_mod, "reconstruct", explode)
    rows = run_sweep(small_spec())
    assert all(np.isnan(r.mse) and not r.converged and r.iters_used == 7 for r in rows)
    out = tmp_path / "failed.csv"
    write_report_csv(rows, out)
    assert ",nan," in out.read_text().splitlines()[1]
    assert all(np.isnan(m) for _, m in ratio_medians(rows))


def test_overflowing_norms_fail_the_solve_and_the_row():
    # at this amplitude the samples and their mean are finite, but the sum
    # of the start's gradient magnitudes, its TV, overflows to inf
    signal = Signal1D(gen_ecg_like(1000, bpm=60, fs=250, seed=0).samples * 2e306)
    config = SolverConfig(max_iters=200)
    with pytest.raises(SolverFailure) as excinfo:
        recover_signal(signal, 0.5, seed=1, config=config)
    assert excinfo.value.iteration == 1
    rows = run_sweep(SweepSpec(signal=signal, ratios=(0.5,), seeds=(1,), solver=config))
    (row,) = rows
    assert np.isnan(row.mse) and not row.converged and row.iters_used == 1


@pytest.mark.parametrize("samples", [
    # the mean overflows to inf, so the centred samples are not finite
    pytest.param([1e308, 1.5e308, 1e308, 1.2e308], id="mean-overflows"),
    # the mean is 0 and the samples are finite, but their DCT overflows
    pytest.param([1.7e308, -1.7e308, 1.7e308, -1.7e308], id="spectrum-overflows"),
])
def test_samples_near_float_max_fail_their_rows_and_the_sweep_completes(samples):
    signal = Signal1D(samples)
    rows = run_sweep(SweepSpec(signal=signal, ratios=(0.5, 1.0), seeds=(1, 2)))
    assert len(rows) == 4
    assert all(np.isnan(r.mse) and not r.converged and r.iters_used == 1 for r in rows)
    assert all(np.isnan(m) for _, m in ratio_medians(rows))


def test_failed_rows_write_a_strict_json_sidecar(tmp_path):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    def sidecar_of(samples, seeds):
        spec = SweepSpec(signal=Signal1D(samples), ratios=(0.5,), seeds=seeds)
        rows = run_sweep(spec)
        write_report_sidecar(rows, spec, tmp_path / "report.json")
        return rows, json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)

    samples = gen_ecg_like(256, bpm=60, fs=64, seed=0).samples
    _, sidecar = sidecar_of(samples * 1e307, (1,))
    assert sidecar["median_mse"] == sidecar["median_start_mse"] == {"0.5": None}
    assert sidecar["start_mse_rows"] == sidecar["final_tv_rows"] == [None]

    # a row that converges but whose MSE exceeds the float range writes inf
    # to the CSV and null to the sidecar
    (row,), sidecar = sidecar_of(samples * 1e200, (1,))
    assert row.converged and row.mse == row.start_mse == np.inf
    assert sidecar["median_mse"] == sidecar["median_start_mse"] == {"0.5": None}
    assert sidecar["start_mse_rows"] == [None] and sidecar["final_tv_rows"] == [row.final_tv]

    # rows that succeed write their final TV, aligned with their start MSE
    rows, sidecar = sidecar_of(samples, (1, 2))
    assert sidecar["start_mse_rows"] == [r.start_mse for r in rows]
    assert sidecar["final_tv_rows"] == [r.final_tv for r in rows]
    assert all(value > 0.0 for value in sidecar["final_tv_rows"])


def test_median_aggregation_ignores_failed_rows(monkeypatch):
    real_run_row = sweep_mod._run_row

    def flaky(*args):
        row = real_run_row(*args)
        if row.seed == 1 and row.ratio == 0.4:
            return sweep_mod.SweepRow(row.ratio, row.seed, float("nan"), 0, False, row.wall_time)
        return row

    monkeypatch.setattr(sweep_mod, "_run_row", flaky)
    rows = run_sweep(small_spec())
    medians = dict(ratio_medians(rows))
    assert not np.isnan(medians[0.4])


# Scaling a signal by c > 0 and shifting it scales and shifts its recovery the
# same way: the pipeline removes the mean, and the solver works in units of
# its start's mean gradient magnitude.  Measured worst deviation over 750
# draws: 3e-15 of c * (max|s| + |offset|); the bound leaves a factor of 300.
EQUIVARIANCE_RTOL = 1e-12


@given(
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-200, 1e-150, 1e-6, 1.0, 1e6, 1e150, 1e200]),
    st.floats(-3.0, 3.0),
    st.floats(0.02, 1.0),
    st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
# the squared gradients of this start underflowed, so its TV came out 0
@example(n=2, data_seed=0, c=1e-150, offset=0.0, ratio=0.5, seed=960)
def test_recovery_is_scale_and_offset_equivariant(n, data_seed, c, offset, ratio, seed):
    samples = np.random.default_rng(data_seed).normal(size=n)
    base, base_result = recover_signal(Signal1D(samples), ratio, seed)
    scaled, scaled_result = recover_signal(Signal1D(c * samples + c * offset), ratio, seed)
    deviation = np.max(np.abs(scaled.samples - (c * base.samples + c * offset)))
    assert deviation <= EQUIVARIANCE_RTOL * c * (np.max(np.abs(samples)) + abs(offset))
    assert scaled_result.iters_used == base_result.iters_used
    assert scaled_result.converged == base_result.converged


# at 1e154 the squares of the errors sum past the float maximum, but their
# mean does not
@pytest.mark.parametrize("c", [1e150, 1e154])
def test_huge_ecg_converges_after_the_same_iterations(c):
    base = gen_ecg_like(1000, bpm=60, fs=250, seed=0)
    big = Signal1D(base.samples * c)
    recovered, result = recover_signal(base, 0.5, seed=1)
    big_recovered, big_result = recover_signal(big, 0.5, seed=1)
    assert big_result.converged and big_result.iters_used == result.iters_used > 10
    assert mse(big, big_recovered) / (c * c) == pytest.approx(mse(base, recovered), rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ratio", [1e-9, 0.5, 1.0])
def test_one_to_three_samples_recover(n, ratio):
    sig = Signal1D([2.5, -1.0, 4.0][:n])
    recovered, result = recover_signal(sig, ratio, seed=3)
    assert len(recovered) == n and np.all(np.isfinite(recovered.samples))
    assert result.converged and constraint_gap(result.image, pipeline_measurements(sig, ratio, 3)) <= 1e-12
    if ratio == 1.0 or n == 1:
        assert mse(sig, recovered) <= 1e-20


def test_constant_signal_is_returned_without_iterating():
    sig = Signal1D(np.full(50, 3.25))
    recovered, result = recover_signal(sig, 0.3, seed=0)
    assert np.array_equal(recovered.samples, sig.samples)
    assert result.converged and result.iters_used == 0


def test_one_kept_coefficient_recovers_a_feasible_signal():
    # the solve runs out its 500 iterations: with one coefficient fixed the
    # minimum is a piecewise-constant image that ADMM approaches slowly
    sig = gen_ecg_like(256, bpm=60, fs=64, seed=0)
    recovered, result = recover_signal(sig, 1e-6, seed=4)
    assert constraint_gap(result.image, pipeline_measurements(sig, 1e-6, 4)) <= 1e-12
    assert np.isfinite(mse(sig, recovered))
    assert result.final_tv < tv(result.start)


def test_ecg_recovery_beats_its_zero_filled_start_from_ratio_045():
    spec = SweepSpec(
        signal=gen_ecg_like(1024, bpm=60.0, fs=360.0, seed=5),
        ratios=(0.3, 0.45, 0.6, 0.75, 0.9),
        seeds=(0, 1, 2),
        source="gen:ecg(n=1024,bpm=60,fs=360,seed=5)",
    )
    rows = run_sweep(spec)
    starts = dict(ratio_medians(rows, "start_mse"))
    for ratio, median in ratio_medians(rows):
        if ratio >= 0.45:
            assert median < starts[ratio], (ratio, median, starts[ratio])
    assert all(np.isfinite(r.start_mse) and r.start_mse > 0.0 for r in rows)


@pytest.mark.parametrize("ratio", [0.3, 0.6, 0.9])
def test_default_solve_ends_within_a_thousandth_of_a_tight_solves_tv(ratio):
    # stopping at the default tol must not trade TV for speed
    signal = gen_ecg_like(1024, bpm=60.0, fs=360.0, seed=5)
    tight = SolverConfig(max_iters=5000, tol=1e-10)
    for seed in (0, 1):
        _, result = recover_signal(signal, ratio, seed)
        _, reference = recover_signal(signal, ratio, seed, tight)
        assert result.final_tv <= (1.0 + 1e-3) * reference.final_tv, (seed, result.final_tv, reference.final_tv)
