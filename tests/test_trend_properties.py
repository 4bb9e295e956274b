"""Full-scale trend property for the pressure and respiration generators.

The matching property for the ECG generator is the acceptance gate's
criterion 6 (test_acceptance.py), which also bounds the decay magnitudes.
Here only the shape of the curves is asserted.  For respiration, the
per-ratio median MSE over nine seeds is non-increasing with at most one
adjacent inversion.  For pressure, minimum TV under the column-wise
embedding does not recover the signal better as the ratio grows, so its
MSE curve is not monotone; what the nested masks do guarantee is checked
instead: each seed's final TV is non-decreasing in the ratio.
"""

import numpy as np
import pytest

from cstv.generators import gen_pressure_like, gen_respiration_like
from cstv.solver import SolverConfig
from cstv.sweep import SweepSpec, run_sweep

RATIO_GRID = tuple(round(0.30 + 0.05 * i, 2) for i in range(13))
SOLVER = SolverConfig(max_iters=1200, tol=1e-12, log_every=1200)


@pytest.mark.slow
@pytest.mark.parametrize(
    "label,signal",
    [
        ("pressure", gen_pressure_like(4096, fs=500.0, seed=0)),
        ("respiration", gen_respiration_like(4096, fs=25.0, seed=0)),
    ],
)
def test_median_mse_trend_is_monotone(label, signal):
    spec = SweepSpec(signal=signal, ratios=RATIO_GRID, seeds=tuple(range(9)),
                     solver=SOLVER, source=label)
    report = run_sweep(spec)
    medians = dict(report.median_mse)
    curve = [medians[r] for r in RATIO_GRID]
    if label == "pressure":
        # a seed's mask at a higher ratio keeps a superset of the coefficients
        # it keeps at a lower one, so its feasible set is a subset and its
        # minimum TV is no lower; the slack is the default relative tolerance
        slack = 1.0 - SolverConfig().tol
        for seed in spec.seeds:
            tvs = [row.final_tv for row in report.rows if row.seed == seed]
            assert all(b >= slack * a for a, b in zip(tvs, tvs[1:])), f"{label} seed {seed}: {tvs}"
    else:
        inversions = sum(1 for a, b in zip(curve, curve[1:]) if b > a)
        assert inversions <= 1, f"{label}: {inversions} inversions in {curve}"
    assert curve[-1] < curve[0]
    assert all(np.isfinite(curve))
