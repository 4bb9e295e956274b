import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import _divergence, admm_reference, constraint_gap, naive_tv
import cstv.solver as solver_module
from cstv.generators import gen_ecg_like
from cstv.sampling import MeasurementSet, draw_mask, measure
from cstv.signal import reshape_to_image
from cstv.signal import Signal1D
from cstv.solver import (
    SolverConfig,
    SolverFailure,
    _divergence_steps,
    _dual_steps,
    _grad_steps,
    _run,
    divergence,
    grad,
    load_solver_config,
    reconstruct,
    tv,
)
from cstv.sweep import recover_signal
from cstv.transform import _dct2


def image(arr):
    return np.asarray(arr, dtype=float)


def two_block_phantom():
    img = np.zeros((16, 16))
    img[3:5, 4:7] = 2.0
    img[10:12, 9:12] = -2.0
    return image(img)


PHANTOM_CONFIG = SolverConfig(max_iters=500, tol=1e-12)


def test_grad_constant_image_is_zero():
    gx, gy = grad(np.full((4, 4), 3.7))
    assert np.all(gx == 0.0) and np.all(gy == 0.0)


def test_grad_two_by_two_example():
    gx, gy = grad(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert gx.tolist() == [[0, 0], [0, 0]]
    assert gy.tolist() == [[1, 0], [1, 0]]


def test_grad_single_pixel():
    gx, gy = grad(np.array([[5.0]]))
    assert gx.tolist() == [[0.0]] and gy.tolist() == [[0.0]]


@pytest.mark.parametrize("side", [1, 2, 7, 16])
def test_out_forms_match_allocating_forms_on_dirty_buffers(side):
    rng = np.random.default_rng(side)
    arrays = [rng.normal(size=(side, side)) for _ in range(3)]
    # the solve iterates in float32 at the default tol, in float64 below it
    for dtype in (np.float64, np.float32):
        x, px, py = (a.astype(dtype) for a in arrays)
        gx, gy = grad(x)
        assert np.all(gx[-1, :] == 0.0) and np.all(gy[:, -1] == 0.0)
        div = divergence(px, py)
        assert gx.dtype == gy.dtype == div.dtype == dtype
        # py's trailing column is not zero, so the flat pass wraps non-zero
        # differences into column 0; the strided formula must still hold exactly
        assert np.all(py[:, -1] != 0.0)
        assert div.tobytes() == _divergence(px, py).tobytes()
        # the solver binds the same steps to its own buffers once per solve
        out_x, out_y, out_div = np.full((3, side, side), np.nan, dtype)
        _run(_grad_steps(x, out_x, out_y))
        _run(_divergence_steps(px, py, out_div))
        assert out_x.tobytes() + out_y.tobytes() == gx.tobytes() + gy.tobytes()
        assert out_div.tobytes() == _divergence(px, py).tobytes()


@pytest.mark.parametrize("side", [1, 2, 5, 64, 129])
def test_stacked_divergences_and_differences_match_the_per_field_forms(side):
    # the solver's iterations write div b and div d of the stacked pair
    # (b, d) to slots 0 and 1, each pair of differences in one subtract, and
    # div d to slot 2 for the next; the steps, made once and run on every
    # iteration, give the bytes of the per-field forms
    rng = np.random.default_rng(side)
    fields, slots = np.full((3, 2, side, side), np.nan), np.full((3, side, side), np.nan)
    d_prev = rng.normal(size=(2, side, side))
    slots[2] = divergence(*d_prev)
    steps = _dual_steps(fields, slots)
    for _ in range(4):
        fields[1:] = rng.normal(size=(2, 2, side, side))
        _run(steps)
        (g, b, d), div_b, div_d = fields, divergence(*fields[1]), divergence(*fields[2])
        assert div_b.tobytes() == _divergence(*b).tobytes() == slots[0].tobytes()
        assert div_d.tobytes() == _divergence(*d).tobytes() == slots[1].tobytes() == slots[2].tobytes()
        assert g[0].tobytes() == (div_b - div_d).tobytes()
        assert g[1].tobytes() == (div_d - divergence(*d_prev)).tobytes()
        d_prev = d.copy()


def test_divergence_of_zero_field_is_zero():
    z = np.zeros((3, 3))
    assert np.all(divergence(z, z) == 0.0)


def test_divergence_of_grad_of_constant_is_zero():
    out = divergence(*grad(np.full((5, 5), -2.0)))
    assert np.all(out == 0.0)


def test_adjoint_identity_random_5x5():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 5))
    px, py = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
    px[-1, :] = 0.0
    py[:, -1] = 0.0
    gx, gy = grad(x)
    lhs = float(np.sum(gx * px + gy * py))
    rhs = -float(np.sum(x * divergence(px, py)))
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


@given(st.integers(2, 16), st.integers(0, 10_000))
@settings(max_examples=100)
def test_adjoint_identity_property(side, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(side, side))
    px, py = rng.normal(size=(side, side)), rng.normal(size=(side, side))
    px[-1, :] = 0.0
    py[:, -1] = 0.0
    gx, gy = grad(x)
    lhs = float(np.sum(gx * px + gy * py))
    rhs = float(np.sum(x * divergence(px, py)))
    scale = np.linalg.norm(x) * np.sqrt(np.sum(px**2 + py**2))
    assert abs(lhs + rhs) <= 1e-10 * max(scale, 1e-30)


@given(st.integers(1, 20), st.integers(0, 10_000))
@settings(max_examples=100)
def test_grad_operator_norm_bound(side, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(side, side))
    gx, gy = grad(x)
    assert np.sum(gx**2 + gy**2) <= 8.0 * np.sum(x**2) + 1e-12


def test_tv_examples():
    assert tv(np.full((6, 6), 9.0)) == 0.0
    assert tv(np.array([[0.0, 1.0], [0.0, 1.0]])) == 2.0


@given(st.integers(1, 12), st.integers(0, 1000))
@settings(max_examples=60)
def test_tv_matches_naive_oracle_exactly(side, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(side, side))
    assert tv(x) == naive_tv(x)


@given(st.floats(-50, 50), st.integers(2, 10), st.integers(0, 1000))
@settings(max_examples=60)
def test_tv_positive_homogeneity(c, side, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(side, side))
    assert tv(c * x) == pytest.approx(abs(c) * tv(x), rel=1e-9, abs=1e-9)


def test_start_is_the_zero_filled_spectrum():
    # the measured coefficients in place, zeros at every other position
    rng = np.random.default_rng(5)
    meas = measure(_dct2(image(rng.normal(size=(6, 6)))), draw_mask(6, 0.4, seed=2))
    start = reconstruct(meas, SolverConfig(max_iters=1)).start
    free = np.ones((6, 6), dtype=bool)
    free[meas.mask.rows, meas.mask.cols] = False
    assert constraint_gap(start, meas) <= 1e-12
    assert np.max(np.abs(_dct2(start)[free])) <= 1e-12


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=math.inf)


def test_solver_config_file_json(tmp_path):
    # key = value lines are the one config syntax
    p = tmp_path / "cfg.json"
    for text in ('{"max_iters": 100, "tol": 1e-8}', '{\n  "max_iters": 100\n}\n'):
        p.write_text(text)
        with pytest.raises(ValueError, match="cannot parse config line"):
            load_solver_config(p)


def test_solver_config_file_key_value(tmp_path):
    p = tmp_path / "cfg.txt"
    text = "max_iters = 64\ntol = 1e-7  # relative\n# comment\n"
    # a leading UTF-8 byte-order mark is not part of the first key
    for data in (text.encode(), b"\xef\xbb\xbf" + text.encode()):
        p.write_bytes(data)
        cfg = load_solver_config(p)
        assert cfg.max_iters == 64 and cfg.tol == 1e-7


@pytest.mark.parametrize("line,named", [("max_iters = 1.5\n", "max_iters = '1.5'"),
                                        ("tol = small\n", "tol = 'small'")])
def test_solver_config_file_names_file_and_key_of_unparsable_value(tmp_path, line, named):
    p = tmp_path / "cfg.txt"
    p.write_text(line)
    with pytest.raises(ValueError) as info:
        load_solver_config(p)
    assert str(info.value) == f"{p}: cannot parse {named}"


def test_solver_config_file_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("bogus = 3\n")
    with pytest.raises(ValueError):
        load_solver_config(p)


@pytest.mark.parametrize("text,key", [("tol = 1e-4\ntol = 1e-12\n", "tol"),
                                      ("max_iters = 64\ntol = 1e-7\nmax_iters=64\n", "max_iters")],
                         ids=["tol-then-another-tol", "max_iters-twice-alike"])
def test_solver_config_file_rejects_a_repeated_key(tmp_path, text, key):
    # the last value would win silently: here a second tol would move the solve to float64
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    with pytest.raises(ValueError) as info:
        load_solver_config(p)
    assert str(info.value) == f"{p}: config key {key} appears twice"


@pytest.mark.parametrize("lines,named", [
    ("step_primal = 0.35\nstep_dual = 0.35\n", "'step_dual', 'step_primal'"),
    ("log_every = 50\n", "'log_every'"),
], ids=["step_sizes", "log_every"])
def test_solver_config_file_rejects_removed_keys(tmp_path, lines, named):
    p = tmp_path / "cfg.txt"
    p.write_text("max_iters = 64\n" + lines)
    with pytest.raises(ValueError, match=named):
        load_solver_config(p)


def test_full_sampling_reproduces_image():
    rng = np.random.default_rng(9)
    img = image(rng.normal(size=(8, 8)))
    meas = measure(_dct2(img), draw_mask(8, 1.0, seed=0))
    result = reconstruct(meas, SolverConfig(max_iters=3))
    assert np.max(np.abs(result.image - img)) <= 1e-8
    assert constraint_gap(result.image, meas) <= 1e-8


def test_zero_measurements_give_zero_image():
    img = image(np.zeros((8, 8)))
    meas = measure(_dct2(img), draw_mask(8, 0.4, seed=3))
    result = reconstruct(meas)
    assert np.all(result.image == 0.0)
    assert result.final_tv == 0.0
    assert result.converged


def test_two_block_recovery_seed1():
    img = two_block_phantom()
    meas = measure(_dct2(img), draw_mask(16, 0.3, seed=1))
    result = reconstruct(meas, PHANTOM_CONFIG)
    rel = np.mean((result.image - img) ** 2) / np.var(img)
    assert rel <= 1e-3
    assert result.iters_used <= 500


def test_feasibility_after_reconstruct():
    rng = np.random.default_rng(11)
    img = image(rng.normal(size=(12, 12)))
    for ratio, seed in [(0.2, 0), (0.5, 1), (0.9, 2)]:
        meas = measure(_dct2(img), draw_mask(12, ratio, seed))
        result = reconstruct(meas, SolverConfig(max_iters=50))
        assert constraint_gap(result.image, meas) <= 1e-8


def test_residuals_certify_the_stop():
    # at tol 1e-4 the solve converges; at 1e-12 it runs out its iterations
    img = two_block_phantom()
    meas = measure(_dct2(img), draw_mask(16, 0.3, seed=1))
    stopped = []
    for tol in (1e-4, 1e-12):
        result = reconstruct(meas, SolverConfig(max_iters=120, tol=tol))
        assert len(result.residuals) == result.iters_used
        passes = [p <= tol * ps and d <= tol * ds for p, ps, d, ds in result.residuals]
        assert not any(passes[:-1])
        assert passes[-1] == result.converged
        stopped.append(result.converged)
    assert stopped == [True, False]


def test_tv_trend_is_non_increasing_within_band():
    # TV every 50 iterations may tick up transiently; allow a small band
    # relative to the starting level, and require overall descent
    img = two_block_phantom()
    for seed in range(5):
        meas = measure(_dct2(img), draw_mask(16, 0.3, seed))
        tvs = [reconstruct(meas, SolverConfig(max_iters=cap, tol=1e-12)).final_tv
               for cap in range(50, 501, 50)]
        band = 0.02 * tvs[0]
        for a, b in zip(tvs, tvs[1:]):
            assert b <= a + band
        assert tvs[-1] <= tvs[0]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_measured_value_fails_at_iteration_1(bad):
    # the solver, not the measurement set, reports a non-finite value
    meas = measure(_dct2(two_block_phantom()), draw_mask(16, 0.3, seed=0))
    values = meas.values.copy()
    values[3] = bad
    with pytest.raises(SolverFailure) as excinfo:
        reconstruct(MeasurementSet(mask=meas.mask, values=values), SolverConfig(max_iters=10))
    assert excinfo.value.iteration == 1


def infinite_divergences(gx, gy, div):
    """The solver's divergence calls, followed by one that makes them infinite."""
    return _divergence_steps(gx, gy, div) + [(div.fill, (np.inf,))]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_solver_failure_carries_iteration(monkeypatch):
    img = two_block_phantom()
    meas = measure(_dct2(img), draw_mask(16, 0.3, seed=0))
    monkeypatch.setattr("cstv.solver._divergence_steps", infinite_divergences)
    with pytest.raises(SolverFailure) as excinfo:
        reconstruct(meas, SolverConfig(max_iters=10))
    assert excinfo.value.iteration == 1


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_solver_failure_carries_the_residual_rows(monkeypatch):
    meas = measure(_dct2(two_block_phantom()), draw_mask(16, 0.3, seed=0))
    monkeypatch.setattr("cstv.solver._divergence_steps", infinite_divergences)
    with pytest.raises(SolverFailure) as excinfo:
        reconstruct(meas, SolverConfig(max_iters=10))
    (row,) = excinfo.value.residuals
    assert np.isfinite(row[0]) and np.isinf(row[2])


def ecg_measurements(ratio, seed, scale=1.0, n=1000):
    """A centred ECG of n samples (side 32 at the default n), measured at (ratio, seed)."""
    samples = gen_ecg_like(n, bpm=60, fs=250, seed=3).samples * scale
    img = reshape_to_image(samples - np.mean(samples))
    return measure(_dct2(img), draw_mask(img.shape[0], ratio, seed))


def phantom_measurements(ratio, seed):
    return measure(_dct2(two_block_phantom()), draw_mask(16, ratio, seed))


def assert_matches_reference(meas, config):
    got, want = reconstruct(meas, config), admm_reference(meas, config)
    assert np.max(np.abs(got.image - want.image)) == 0.0
    assert got.iters_used == want.iters_used
    assert got.converged == want.converged
    assert got.residuals == want.residuals
    assert got.final_tv == want.final_tv
    return got


def test_reconstruct_equals_allocating_reference_on_phantom():
    # seeds 0-4 at ratio 0.3 converge at iterations 225-482 and (0.9, 11)
    # at iteration 51; full sampling leaves no free coefficient and stops at
    # iteration 0
    converged = []
    for ratio, seed in [(0.3, 0), (0.3, 1), (0.3, 2), (0.3, 3), (0.3, 4), (0.9, 11), (1.0, 0)]:
        result = assert_matches_reference(phantom_measurements(ratio, seed), PHANTOM_CONFIG)
        converged.append(result.converged)
    assert converged == [True] * 7


@pytest.mark.parametrize("meas", [ecg_measurements(1.0, seed=0), phantom_measurements(1.0, 3)], ids=["ecg", "phantom"])
def test_full_sampling_returns_the_start_without_iterating(meas):
    # no coefficient is free, so the start is the only image the x-update
    # can produce
    result = assert_matches_reference(meas, SolverConfig())
    assert result.converged and result.iters_used == 0 and result.residuals == ()
    assert result.image.tobytes() == result.start.tobytes()
    assert not np.shares_memory(result.image, result.start)


def test_an_offset_of_a_million_is_carried_by_the_re_pin_alone():
    # the iterations, in float32 at the default tol, hold DC at 0, so the
    # offset takes none of their bits; the float64 re-pin restores it
    img, mask = two_block_phantom(), draw_mask(16, 0.3, seed=1)
    assert 0 in mask.kept_ranks  # DC is measured
    assert SolverConfig().dtype == np.float32
    base = reconstruct(measure(_dct2(img), mask))
    shifted = reconstruct(measure(_dct2(img + 1e6), mask))
    assert base.converged and shifted.converged
    assert np.max(np.abs(shifted.image - (base.image + 1e6))) <= 1e-9 * 1e6


def test_result_equality_is_identity_and_hash_works():
    # the generated == would compare the result's image arrays
    a, b = (reconstruct(phantom_measurements(0.3, 0), SolverConfig(max_iters=5)) for _ in range(2))
    assert a == a and a != b
    assert hash(a) == hash(a)


@pytest.mark.parametrize("ratio", [0.3, 0.9])
def test_reconstruct_equals_allocating_reference_on_ecg(ratio):
    assert_matches_reference(ecg_measurements(ratio, seed=1), SolverConfig())


def test_reconstruct_follows_allocating_reference_where_the_dct_splits():
    # at side 128 the solver's DCT pair takes the even/odd split and the
    # reference the dense product, so they agree to round-off, not bit for bit
    meas = ecg_measurements(0.5, seed=1, n=16384)
    assert meas.mask.side == 128
    config = SolverConfig(max_iters=40, tol=1e-15)
    got, want = reconstruct(meas, config), admm_reference(meas, config)
    assert got.iters_used == want.iters_used == 40
    assert np.max(np.abs(got.image - want.image)) <= 1e-9 * np.max(np.abs(want.image))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_fails_at_the_reference_iteration():
    meas = ecg_measurements(0.5, seed=1, scale=2e306)
    config = SolverConfig(max_iters=200)
    with pytest.raises(SolverFailure) as got:
        reconstruct(meas, config)
    with pytest.raises(SolverFailure) as want:
        admm_reference(meas, config)
    assert got.value.iteration == want.value.iteration


def test_back_to_back_solves_of_different_sides_share_no_state():
    config = SolverConfig(max_iters=120)
    for meas in (ecg_measurements(0.6, seed=2), phantom_measurements(0.3, 1), ecg_measurements(0.6, seed=2)):
        assert_matches_reference(meas, config)


def long_ecg(side):
    """A 360 Hz ECG that fills a side x side image, like a long record."""
    return Signal1D(gen_ecg_like(side * side, fs=360.0, seed=0).samples)


def long_ecg_measurements(side, ratio=0.5, seed=1):
    samples = long_ecg(side).samples
    img = reshape_to_image(samples - np.mean(samples))
    return measure(_dct2(img), draw_mask(side, ratio, seed))


@pytest.mark.parametrize("side", [32, 64, 127, 128, 256])
def test_float32_iterations_follow_float64_and_the_re_pin_holds_the_kept_values(side):
    # the default tol iterates in float32; the floor behind FLOAT32_MIN_TOL
    # holds float32 to an iteration and 5e-4 relative MSE of float64
    samples = long_ecg(side).samples
    truth = reshape_to_image(samples - np.mean(samples))
    spectrum = _dct2(truth)
    meas = measure(spectrum, draw_mask(side, 0.5, 1))
    config = SolverConfig()
    assert config.dtype == np.float32
    got, want = reconstruct(meas, config), admm_reference(meas, config, dtype=np.float64)
    assert got.image.dtype == np.float64 and got.converged
    assert constraint_gap(got.image, meas) <= 1e-12 * np.max(np.abs(spectrum))
    assert abs(got.iters_used - want.iters_used) <= 1
    got_mse, want_mse = (np.mean((result.image - truth) ** 2) for result in (got, want))
    assert got_mse == pytest.approx(want_mse, rel=5e-4)


def test_overflow_on_a_worker_fails_alike_and_warns_nowhere(monkeypatch):
    # samples near the float maximum overflow the start's TV, before any iteration
    with pytest.raises(SolverFailure) as failure:
        recover_signal(Signal1D(long_ecg(256).samples * 1e306), 0.5, 1)
    assert (failure.value.iteration, failure.value.residuals) == (1, ())

    # a gradient ten times the square root of its dtype's maximum overflows
    # the shrink step's squares, in float32 or float64; recover_signal's
    # error state must hold in the iterations, or the overflow warning, an
    # error under pytest, would stop them
    def huge_grad(x, gx, gy):
        steps = _grad_steps(x, gx, gy)
        if gx.base is None:  # tv's gradient, in arrays of its own, not the iteration's
            return steps
        huge = np.sqrt(np.finfo(gx.dtype).max) * 10
        return steps + [(np.multiply, (field, huge, field)) for field in (gx, gy)]

    monkeypatch.setattr("cstv.solver._grad_steps", huge_grad)
    failures = []
    for config in (SolverConfig(), SolverConfig(tol=1e-12)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure) as failure:
                recover_signal(long_ecg(256), 0.5, 1, config)
        failures.append((failure.value.iteration, repr(failure.value.residuals)))
    assert failures[0][0] == failures[1][0] == 1
    assert all("inf" in residuals for _, residuals in failures)


@pytest.mark.parametrize("side,tol", [(128, 1e-15), (256, 1e-15), (256, SolverConfig().tol)],
                         ids=["128-1", "256-1", "256-1-float32"])
def test_iterations_allocate_no_array(monkeypatch, side, tol):
    # the solve's traced peak and the iterations' own peak above what they
    # hold when they start; tv's temporaries after the iterations set the
    # former, so only the latter would see an array that one iteration
    # makes and drops
    meas, real_iterate, loop_peaks = long_ecg_measurements(side), solver_module._iterate, []

    def traced_iterate(*args):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        iterated = real_iterate(*args)
        loop_peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return iterated

    reconstruct(meas, SolverConfig(max_iters=2))  # fills the transform's basis caches
    monkeypatch.setattr(solver_module, "_iterate", traced_iterate)
    peaks = []
    for max_iters in (2, 40):
        tracemalloc.start()
        try:
            result = reconstruct(meas, SolverConfig(max_iters=max_iters, tol=tol))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.iters_used == max_iters
    # the residual rows, well under a KiB each, are all that accumulates
    assert 0 <= peaks[1] - peaks[0] <= 1024 * (40 - 2)
    if side == 256:
        # less than one side x side array (512 KiB); numpy buffers up to 8192
        # values (64 KiB) an operand of a call whose operands' strides differ,
        # which at side 128 alone exceed its 128 KiB array
        assert max(loop_peaks) < 8 * side * side
