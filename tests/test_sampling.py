import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import scalar_draw_ranks
from cstv.sampling import MeasurementMask, MeasurementSet, draw_mask, measure
from cstv.transform import dct2_forward, zigzag_order


def zero_filled(meas):
    """The measured coefficients scattered into an otherwise zero spectrum."""
    coeffs = np.zeros((meas.mask.side, meas.mask.side))
    coeffs[meas.mask.rows, meas.mask.cols] = meas.values
    return coeffs


def test_full_ratio_keeps_everything():
    mask = draw_mask(3, 1.0, seed=99)
    assert mask.kept_ranks.tolist() == list(range(9))


def test_mask_is_deterministic():
    a = draw_mask(10, 0.4, seed=7)
    b = draw_mask(10, 0.4, seed=7)
    assert np.array_equal(a.kept_ranks, b.kept_ranks)


def test_mask_count_and_range():
    mask = draw_mask(10, 0.4, seed=7)
    ranks = mask.kept_ranks
    assert ranks.size == 40
    assert np.unique(ranks).size == 40
    assert ranks.min() >= 0 and ranks.max() < 100


@pytest.mark.parametrize("ratio", [0.0, -0.2, 1.01])
def test_bad_ratio_rejected(ratio):
    with pytest.raises(ValueError):
        draw_mask(4, ratio, seed=0)


def test_bad_side_rejected():
    with pytest.raises(ValueError):
        draw_mask(0, 0.5, seed=0)


def test_tiny_ratio_clamps_to_one_rank():
    assert draw_mask(4, 1e-9, seed=3).kept_ranks.size == 1


@pytest.mark.parametrize("side", [1, 2, 3, 32, 64, 256])
def test_mask_matches_scalar_draw_oracle(side):
    for ratio in (0.01, 0.3, 0.9, 1.0):
        for seed in (0, 1, 12345, 2**31 - 1):
            want = scalar_draw_ranks(side, ratio, seed)
            assert np.array_equal(draw_mask(side, ratio, seed).kept_ranks, want)


@given(st.integers(1, 12), st.integers(0, 1000))
@settings(max_examples=50)
def test_masks_nest_across_ratios(side, seed):
    # prefix property of the partial shuffle: same seed, higher ratio
    # extends the kept set
    low = draw_mask(side, 0.3, seed)
    high = draw_mask(side, 0.7, seed)
    assert set(low.kept_ranks.tolist()) <= set(high.kept_ranks.tolist())


def test_measure_full_mask_is_zigzag_linearization():
    rng = np.random.default_rng(1)
    img = rng.normal(size=(4, 4))
    spec = dct2_forward(img)
    meas = measure(spec, draw_mask(4, 1.0, seed=0))
    order = zigzag_order(4)
    expected = spec[order.rows, order.cols]
    assert np.array_equal(meas.values, expected)


def test_measure_dc_of_constant_image():
    side, c = 4, 3.25
    spec = dct2_forward(np.full((side, side), c))
    mask = MeasurementMask(side=side, kept_ranks=np.array([0]))
    meas = measure(spec, mask)
    assert meas.values[0] == pytest.approx(c * side, rel=1e-12)


def test_measure_first_three_ranks_side3():
    coeffs = np.arange(9, dtype=float).reshape(3, 3)
    mask = MeasurementMask(side=3, kept_ranks=np.array([0, 1, 2]))
    meas = measure(coeffs, mask)
    # side-3 zig-zag starts (0,0), (0,1), (1,0)
    assert meas.values.tolist() == [coeffs[0, 0], coeffs[0, 1], coeffs[1, 0]]


def test_measure_side_mismatch():
    with pytest.raises(ValueError):
        measure(np.zeros((3, 3)), draw_mask(4, 0.5, seed=0))


def test_embed_full_measurement_reproduces_spectrum():
    rng = np.random.default_rng(2)
    spec = dct2_forward(rng.normal(size=(5, 5)))
    meas = measure(spec, draw_mask(5, 1.0, seed=0))
    assert np.array_equal(zero_filled(meas), spec)


def test_embed_single_dc_measurement():
    mask = MeasurementMask(side=3, kept_ranks=np.array([0]))
    meas = MeasurementSet(mask=mask, values=np.array([4.5]))
    coeffs = zero_filled(meas)
    assert coeffs[0, 0] == 4.5
    assert np.count_nonzero(coeffs) == 1


@given(st.integers(1, 10), st.floats(0.05, 1.0), st.integers(0, 500))
@settings(max_examples=50)
def test_measure_embed_measure_roundtrip(side, ratio, seed):
    rng = np.random.default_rng(seed)
    spec = dct2_forward(rng.normal(size=(side, side)))
    mask = draw_mask(side, ratio, seed)
    meas = measure(spec, mask)
    again = measure(zero_filled(meas), mask)
    assert np.array_equal(again.values, meas.values)


def test_mask_rejects_duplicates_and_out_of_range():
    with pytest.raises(ValueError):
        MeasurementMask(side=2, kept_ranks=np.array([1, 1]))
    with pytest.raises(ValueError, match="distinct"):
        MeasurementMask(side=3, kept_ranks=np.array([5, 0, 2, 5]))
    with pytest.raises(ValueError):
        MeasurementMask(side=2, kept_ranks=np.array([4]))


def test_equality_is_identity_and_hash_works():
    a, b = draw_mask(4, 0.5, 1), draw_mask(4, 0.5, 1)
    assert a == a and a != b
    meas = MeasurementSet(mask=a, values=np.zeros(a.kept_ranks.size))
    assert meas == meas and meas != MeasurementSet(mask=a, values=np.zeros(a.kept_ranks.size))
    for obj in (a, meas, zigzag_order(4)):
        assert hash(obj) == hash(obj)


def test_inclusion_frequency_is_roughly_uniform():
    # light version of the acceptance check
    side, ratio, n_seeds = 8, 0.25, 1500
    counts = np.zeros(side * side)
    for seed in range(n_seeds):
        counts[draw_mask(side, ratio, seed).kept_ranks] += 1
    freq = counts / n_seeds
    assert np.all(np.abs(freq - ratio) < 0.08)
