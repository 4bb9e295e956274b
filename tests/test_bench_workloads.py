"""The benchmark's own reading of masks and starts agrees with cstv's.

``bench/workloads.py`` rebuilds each call's kept positions and zero-filled
start from cstv's public names to check outputs from outside; a change to
those names or their meaning would otherwise fail only in a benchmark run.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cstv.generators import gen_ecg_like
from cstv.sampling import draw_mask
from cstv.solver import SolverConfig
from cstv.sweep import recover_signal

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its class's module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("n", [1024, 4096, 65536])
def test_kept_positions_and_zero_filled_start_match_cstv(workloads, n):
    side = math.isqrt(n)
    signal = gen_ecg_like(n, seed=n)
    truth, mean = signal.samples, np.mean(signal.samples)
    for ratio in (0.3, 0.5):
        for seed in (1, 2):
            mask = draw_mask(side, ratio, seed)
            kept = workloads.kept_positions(side, ratio, seed)
            assert np.array_equal(kept[0], mask.rows) and np.array_equal(kept[1], mask.cols)
            _, result = recover_signal(signal, ratio, seed, SolverConfig(max_iters=1))
            start = result.start.reshape(-1, order="F") + mean
            err = np.max(np.abs(workloads.zero_filled(truth, kept) - start))
            assert err <= 1e-12 * np.max(np.abs(truth))
