"""Deterministic synthetic biomedical-like waveforms for experiments.

These stand in for recorded instrument signals.  Each generator is a pure
function of its arguments; the seed only shapes small secondary components
(baseline wander, beat-to-beat modulation), never the core morphology.
"""

from __future__ import annotations

import numpy as np

from .signal import Signal1D

# Per-beat bump table: (amplitude, center offset, width), offsets and
# widths as fractions of the beat period.  Ordered P, Q, R, S, T.
ECG_COMPONENTS: tuple[tuple[float, float, float], ...] = (
    (0.08, -0.25, 0.020),
    (-0.10, -0.03, 0.008),
    (1.00, 0.00, 0.012),
    (-0.20, 0.03, 0.008),
    (0.20, 0.18, 0.035),
)
# Amplitude of the seeded sinusoidal baseline wander under the beats.
ECG_WANDER = 0.02

# Pressure pulse: two in-beat harmonics (amplitude, harmonic, phase) under
# an exponential decay, riding on a constant offset.  The decay confines
# the pulse to the first part of the beat, leaving a near-flat runoff.
PRESSURE_HARMONICS: tuple[tuple[float, int, float], ...] = ((1.0, 1, 0.0), (0.5, 2, 1.0))
PRESSURE_DECAY = 5.0
PRESSURE_OFFSET = 90.0
PRESSURE_PULSE_SCALE = 35.0

RESPIRATION_PHASE = 0.55
RESPIRATION_MOD_DEPTH = 0.15


def _setup(n: int, fs: float, bpm: float, seed: int) -> tuple[np.random.Generator, np.ndarray]:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not fs > 0.0:
        raise ValueError("fs must be > 0")
    if not bpm > 0.0:
        raise ValueError("bpm must be > 0")
    if not (np.isfinite(60.0 / bpm) and 60.0 / bpm * fs >= 1.0):
        raise ValueError("a beat (60/bpm seconds) must be finite and at least one sample long: 60/bpm*fs >= 1")
    return np.random.default_rng(seed), np.arange(n, dtype=np.float64) / fs


def gen_ecg_like(
    n: int,
    bpm: float = 60.0,
    fs: float = 360.0,
    seed: int = 0,
    amplitude: float = 1.0,
) -> Signal1D:
    """Periodic P-QRS-T waveform as a sum of Gaussian bumps per beat.

    R peaks sit at (beat + 1/2) * period.  A small seeded sinusoidal
    baseline wander (random frequency in 0.15..0.35 Hz, random phase) is
    added; ``amplitude`` scales the whole signal.  Each bump is evaluated
    within 40 widths of its centre, giving the same values as the full sum.
    """
    rng, t = _setup(n, fs, bpm, seed)
    period = 60.0 / bpm
    x = np.zeros(n, dtype=np.float64)
    for b in range(int(np.ceil(t[-1] / period)) + 2):
        t_r = (b + 0.5) * period
        for amp, off, width in ECG_COMPONENTS:
            centre, reach = t_r + off * period, 40.0 * width * period  # beyond reach a bump underflows to 0.0
            near = slice(*np.searchsorted(t, (centre - reach, centre + reach)))
            x[near] += amp * np.exp(-0.5 * ((t[near] - t_r - off * period) / (width * period)) ** 2)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    f_w = rng.uniform(0.15, 0.35)
    x += ECG_WANDER * np.sin(2.0 * np.pi * f_w * t + phase)
    return Signal1D(amplitude * x)


def gen_pressure_like(
    n: int,
    fs: float = 125.0,
    seed: int = 0,
    bpm: float = 72.0,
) -> Signal1D:
    """Arterial-pressure-like pulse train.

    Within each beat the pulse is two harmonics under an exponential
    decay, which yields the sawtooth rise and a dicrotic-notch-like dip;
    a slow seeded modulation varies the pulse height by a few percent.
    """
    rng, t = _setup(n, fs, bpm, seed)
    period = 60.0 / bpm
    phase_in_beat = (t / period) % 1.0
    pulse = np.zeros(n, dtype=np.float64)
    for amp, harmonic, ph in PRESSURE_HARMONICS:
        pulse += amp * np.sin(2.0 * np.pi * harmonic * phase_in_beat + ph)
    pulse *= np.exp(-PRESSURE_DECAY * phase_in_beat)
    f_mod = rng.uniform(0.02, 0.06)
    mod_phase = rng.uniform(0.0, 2.0 * np.pi)
    modulation = 1.0 + 0.05 * np.sin(2.0 * np.pi * f_mod * t + mod_phase)
    return Signal1D(PRESSURE_OFFSET + PRESSURE_PULSE_SCALE * modulation * pulse)


def gen_respiration_like(
    n: int,
    fs: float = 25.0,
    seed: int = 0,
    bpm: float = 12.0,
) -> Signal1D:
    """Slow breathing sinusoid at ``bpm`` breaths per minute, with seeded
    amplitude modulation.

    Amplitude modulation keeps the carrier's zero crossings in place, so
    crossing counts follow directly from the breathing rate.
    """
    rng, t = _setup(n, fs, bpm, seed)
    f = bpm / 60.0
    f_mod = rng.uniform(0.01, 0.03)
    mod_phase = rng.uniform(0.0, 2.0 * np.pi)
    modulation = 1.0 + RESPIRATION_MOD_DEPTH * np.sin(2.0 * np.pi * f_mod * t + mod_phase)
    carrier = np.sin(2.0 * np.pi * f * t + RESPIRATION_PHASE)
    return Signal1D(modulation * carrier)
