"""Full-scale trend property for the pressure and respiration generators.

The matching property for the ECG generator is the acceptance gate's
criterion 6 (test_acceptance.py), which also bounds the decay magnitudes.
Here only the shape of the curve is asserted: per-ratio median MSE over
nine seeds is non-increasing with at most one adjacent inversion.
"""

import numpy as np
import pytest

from cstv.generators import gen_pressure_like, gen_respiration_like
from cstv.solver import SolverConfig
from cstv.sweep import SweepSpec, run_sweep

RATIO_GRID = tuple(round(0.30 + 0.05 * i, 2) for i in range(13))
SOLVER = SolverConfig(max_iters=1200, tol=1e-12, step_primal=0.35, step_dual=0.35, log_every=1200)


def median_curve(signal, label):
    spec = SweepSpec(signal=signal, ratios=RATIO_GRID, seeds=tuple(range(9)),
                     solver=SOLVER, source=label)
    medians = dict(run_sweep(spec).median_mse)
    return [medians[r] for r in RATIO_GRID]


@pytest.mark.slow
@pytest.mark.parametrize(
    "label,signal",
    [
        ("pressure", gen_pressure_like(4096, fs=500.0, seed=0)),
        ("respiration", gen_respiration_like(4096, fs=25.0, seed=0)),
    ],
)
def test_median_mse_trend_is_monotone(label, signal):
    curve = median_curve(signal, label)
    inversions = sum(1 for a, b in zip(curve, curve[1:]) if b > a)
    assert inversions <= 1, f"{label}: {inversions} inversions in {curve}"
    assert curve[-1] < curve[0]
    assert all(np.isfinite(curve))
