import numpy as np
import pytest

from _oracles import ecg_full_sum
from cstv.generators import gen_ecg_like, gen_pressure_like, gen_respiration_like


def count_r_peaks(samples):
    x = np.asarray(samples)
    thresh = 0.8 * x.max()
    peaks = 0
    for i in range(1, len(x) - 1):
        if x[i] > thresh and x[i] >= x[i - 1] and x[i] > x[i + 1]:
            peaks += 1
    return peaks


def test_ecg_deterministic():
    a = gen_ecg_like(1000, bpm=60, fs=250, seed=42)
    b = gen_ecg_like(1000, bpm=60, fs=250, seed=42)
    assert np.array_equal(a.samples, b.samples)


def test_ecg_seed_changes_wander():
    a = gen_ecg_like(1000, bpm=60, fs=250, seed=1)
    b = gen_ecg_like(1000, bpm=60, fs=250, seed=2)
    assert not np.array_equal(a.samples, b.samples)


def test_ecg_four_beats_in_four_seconds():
    # 1000 samples at 250 Hz is 4 s; at 60 bpm the R peaks land at
    # 0.5, 1.5, 2.5, 3.5 s
    sig = gen_ecg_like(1000, bpm=60, fs=250, seed=0)
    assert count_r_peaks(sig.samples) == 4


def test_ecg_zero_amplitude_is_zero_signal():
    sig = gen_ecg_like(500, bpm=60, fs=250, seed=3, amplitude=0.0)
    assert np.all(sig.samples == 0.0)


def test_ecg_single_sample():
    sig = gen_ecg_like(1, bpm=60, fs=250, seed=0)
    assert len(sig) == 1 and np.isfinite(sig.samples[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kwargs", [
    # the benchmark's records: trend_sweep, long_record, short_records in mV and in ADC counts
    dict(n=4096, bpm=36.0, fs=4800.0), dict(n=65536, fs=360.0), dict(n=1024, fs=360.0, amplitude=1.0),
    dict(n=1024, fs=360.0, amplitude=200.0),
    dict(n=1), dict(n=3), dict(n=500, bpm=600.0, fs=50.0), dict(n=40, bpm=1.0, fs=0.02),
], ids=["bench-4096", "bench-65536", "bench-1024-mv", "bench-1024-adc", "n1", "n3", "bpm600-fs50", "bpm1-fs0.02"])
def test_ecg_matches_the_full_bump_sum(kwargs, seed):
    # bumps summed only within 40 widths of their centres give the bytes of the sum over every sample
    assert gen_ecg_like(seed=seed, **kwargs).samples.tobytes() == ecg_full_sum(seed=seed, **kwargs).tobytes()


def test_ecg_evaluates_each_bump_near_its_centre_only(monkeypatch):
    # the full sum hands np.exp 925 n values at 360 Hz and 60 bpm (5 bumps x 185 beats)
    real_exp, seen = np.exp, []

    def counting_exp(x, *args, **kwargs):
        seen.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    n = 65536
    gen_ecg_like(n, fs=360.0)
    assert 0 < sum(seen) <= 8 * n


@pytest.mark.parametrize(
    "kwargs",
    # the last two give a beat shorter than one sample
    [dict(n=0), dict(n=10, bpm=0.0), dict(n=10, fs=-1.0), dict(n=10, fs=1e-320), dict(n=10, bpm=1e308)],
)
def test_ecg_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        gen_ecg_like(**{"bpm": 60.0, "fs": 250.0, "seed": 0, **kwargs})


def test_pressure_deterministic_and_finite():
    a = gen_pressure_like(1500, fs=125, seed=7)
    b = gen_pressure_like(1500, fs=125, seed=7)
    assert np.array_equal(a.samples, b.samples)
    assert np.all(np.isfinite(a.samples))


def test_pressure_single_sample():
    sig = gen_pressure_like(1, fs=125, seed=0)
    assert len(sig) == 1 and np.isfinite(sig.samples[0])


def test_pressure_pulses_at_beat_rate():
    # 30 s at 72 beats/min: expect 36 pulse peaks, one per beat
    sig = gen_pressure_like(3750, fs=125, seed=1, bpm=72)
    x = sig.samples - np.mean(sig.samples)
    peaks = sum(
        1
        for i in range(1, len(x) - 1)
        if x[i] > 0.5 * x.max() and x[i] >= x[i - 1] and x[i] > x[i + 1]
    )
    assert peaks == 36


def test_pressure_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_pressure_like(0, fs=125, seed=0)
    with pytest.raises(ValueError):
        gen_pressure_like(10, fs=125, seed=0, bpm=0.0)


def test_respiration_deterministic():
    a = gen_respiration_like(1500, fs=25, seed=9)
    b = gen_respiration_like(1500, fs=25, seed=9)
    assert np.array_equal(a.samples, b.samples)


def test_respiration_twelve_breath_pairs_per_minute():
    # 1500 samples at 25 Hz is 60 s; 12 breaths/min gives 24 sign changes
    # of the demeaned signal, i.e. 12 crossing pairs
    sig = gen_respiration_like(1500, fs=25, seed=4, bpm=12)
    x = sig.samples - np.mean(sig.samples)
    crossings = int(np.sum(np.sign(x[1:]) * np.sign(x[:-1]) < 0))
    assert crossings // 2 == 12


def test_respiration_single_sample():
    sig = gen_respiration_like(1, fs=25, seed=0)
    assert len(sig) == 1 and np.isfinite(sig.samples[0])


def test_respiration_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_respiration_like(5, fs=0.0, seed=0)
    with pytest.raises(ValueError):
        gen_respiration_like(5, fs=25, seed=0, bpm=-1.0)
    with pytest.raises(ValueError, match="60/bpm"):
        gen_respiration_like(5, fs=1e-320, seed=0)
    with pytest.raises(ValueError, match="60/bpm"):
        gen_respiration_like(5, fs=25, seed=0, bpm=1e308)
    # a breath of infinite length
    with pytest.raises(ValueError, match="60/bpm"):
        gen_respiration_like(5, fs=25, seed=0, bpm=1e-320)
