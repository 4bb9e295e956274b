import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import admm_reference, naive_tv
from cstv.generators import gen_ecg_like
from cstv.sampling import draw_mask, measure, project_constraint
from cstv.signal import ImageMatrix, Signal1D, reshape_to_image
from cstv.solver import (
    SolverConfig,
    SolverFailure,
    divergence,
    grad,
    load_solver_config,
    reconstruct,
    tv,
)
from cstv.transform import dct2_forward


def image(arr):
    arr = np.asarray(arr, dtype=float)
    return ImageMatrix(arr)


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
    x = rng.normal(size=(side, side))
    px, py = rng.normal(size=(side, side)), rng.normal(size=(side, side))
    out_x, out_y, out_div = np.full((3, side, side), np.nan)
    gx, gy = grad(x, out=(out_x, out_y))
    assert gx is out_x and gy is out_y
    assert np.all(gx[-1, :] == 0.0) and np.all(gy[:, -1] == 0.0)
    for got, want in zip((gx, gy), grad(x)):
        assert got.tobytes() == want.tobytes()
    div = divergence(px, py, out=out_div)
    assert div is out_div
    assert div.tobytes() == divergence(px, py).tobytes()


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


def test_project_constraint_idempotent_and_fixes_measured():
    rng = np.random.default_rng(5)
    spec = dct2_forward(image(rng.normal(size=(6, 6))))
    meas = measure(spec, draw_mask(6, 0.4, seed=2))
    once = dct2_forward(image(rng.normal(size=(6, 6))))
    project_constraint(once, meas)
    twice = once.copy()
    project_constraint(twice, meas)
    assert np.array_equal(once, twice)
    assert np.array_equal(measure(once, meas.mask).values, meas.values)


def test_project_constraint_on_satisfying_spectrum_is_identity():
    rng = np.random.default_rng(6)
    spec = dct2_forward(image(rng.normal(size=(5, 5))))
    meas = measure(spec, draw_mask(5, 0.5, seed=1))
    coeffs = spec.copy()
    project_constraint(coeffs, meas)
    assert np.array_equal(coeffs, spec)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(log_every=0)


def test_solver_config_file_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"max_iters": 100, "tol": 1e-8, "log_every": 10}')
    cfg = load_solver_config(p)
    assert cfg.max_iters == 100 and cfg.tol == 1e-8
    assert cfg.log_every == 10


def test_solver_config_file_key_value(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("max_iters = 64\ntol: 1e-7\n# comment\n")
    cfg = load_solver_config(p)
    assert cfg.max_iters == 64 and cfg.tol == 1e-7


def test_solver_config_file_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("bogus = 3\n")
    with pytest.raises(ValueError):
        load_solver_config(p)


def test_solver_config_file_rejects_the_removed_step_sizes(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("max_iters = 64\nstep_primal = 0.35\nstep_dual = 0.35\n")
    with pytest.raises(ValueError, match="step_dual', 'step_primal"):
        load_solver_config(p)


def test_full_sampling_reproduces_image():
    rng = np.random.default_rng(9)
    img = image(rng.normal(size=(8, 8)))
    meas = measure(dct2_forward(img), draw_mask(8, 1.0, seed=0))
    result = reconstruct(meas, SolverConfig(max_iters=3))
    assert np.max(np.abs(result.image.values - img.values)) <= 1e-8
    assert result.constraint_residual <= 1e-8


def test_zero_measurements_give_zero_image():
    img = image(np.zeros((8, 8)))
    meas = measure(dct2_forward(img), draw_mask(8, 0.4, seed=3))
    result = reconstruct(meas)
    assert np.all(result.image.values == 0.0)
    assert result.final_tv == 0.0
    assert result.converged


def test_two_block_recovery_seed1():
    img = two_block_phantom()
    meas = measure(dct2_forward(img), draw_mask(16, 0.3, seed=1))
    result = reconstruct(meas, PHANTOM_CONFIG)
    rel = np.mean((result.image.values - img.values) ** 2) / np.var(img.values)
    assert rel <= 1e-3
    assert result.iters_used <= 500


def test_feasibility_after_reconstruct():
    rng = np.random.default_rng(11)
    img = image(rng.normal(size=(12, 12)))
    for ratio, seed in [(0.2, 0), (0.5, 1), (0.9, 2)]:
        meas = measure(dct2_forward(img), draw_mask(12, ratio, seed))
        result = reconstruct(meas, SolverConfig(max_iters=50))
        assert result.constraint_residual <= 1e-8


def test_history_sampling():
    img = two_block_phantom()
    meas = measure(dct2_forward(img), draw_mask(16, 0.3, seed=1))
    cfg = SolverConfig(max_iters=120, tol=1e-12, log_every=25)
    result = reconstruct(meas, cfg)
    assert [it for it, _, _ in result.history] == [25, 50, 75, 100]


def test_tv_trend_is_non_increasing_within_band():
    # sampled TV may tick up transiently after a projection; allow a small
    # band relative to the starting level, and require overall descent
    img = two_block_phantom()
    for seed in range(5):
        meas = measure(dct2_forward(img), draw_mask(16, 0.3, seed))
        cfg = SolverConfig(max_iters=500, tol=1e-12, log_every=50)
        result = reconstruct(meas, cfg)
        tvs = [t for it, _, t in result.history if it > 10]
        band = 0.02 * tvs[0]
        for a, b in zip(tvs, tvs[1:]):
            assert b <= a + band
        assert tvs[-1] <= tvs[0]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_solver_failure_carries_iteration(monkeypatch):
    img = two_block_phantom()
    meas = measure(dct2_forward(img), draw_mask(16, 0.3, seed=0))
    monkeypatch.setattr("cstv.solver.divergence", lambda gx, gy, out=None: np.full_like(gx, np.inf))
    with pytest.raises(SolverFailure) as excinfo:
        reconstruct(meas, SolverConfig(max_iters=10))
    assert excinfo.value.iteration == 1


def ecg_measurements(ratio, seed, scale=1.0):
    """A centred n=1000 ECG embedded at side 32, measured at (ratio, seed)."""
    samples = gen_ecg_like(1000, bpm=60, fs=250, seed=3).samples * scale
    img = reshape_to_image(Signal1D(samples - np.mean(samples)))
    return measure(dct2_forward(img), draw_mask(img.side, ratio, seed))


def phantom_measurements(ratio, seed):
    return measure(dct2_forward(two_block_phantom()), draw_mask(16, ratio, seed))


def assert_matches_reference(meas, config):
    got, want = reconstruct(meas, config), admm_reference(meas, config)
    assert np.max(np.abs(got.image.values - want.image.values)) == 0.0
    assert got.iters_used == want.iters_used
    assert got.converged == want.converged
    assert got.history == want.history
    assert got.final_tv == want.final_tv
    assert got.constraint_residual == want.constraint_residual
    return got


def test_reconstruct_equals_allocating_reference_on_phantom():
    # seeds 0-4 at ratio 0.3 converge at iterations 199-440, (0.9, 11) at
    # iteration 40 and full sampling at iteration 3
    converged = []
    for ratio, seed in [(0.3, 0), (0.3, 1), (0.3, 2), (0.3, 3), (0.3, 4), (0.9, 11), (1.0, 0)]:
        result = assert_matches_reference(phantom_measurements(ratio, seed), PHANTOM_CONFIG)
        converged.append(result.converged)
    assert converged == [True] * 7


@pytest.mark.parametrize("ratio", [0.3, 0.9])
def test_reconstruct_equals_allocating_reference_on_ecg(ratio):
    assert_matches_reference(ecg_measurements(ratio, seed=1), SolverConfig())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_fails_at_the_reference_iteration():
    meas = ecg_measurements(0.5, seed=1, scale=1e200)
    config = SolverConfig(max_iters=200)
    with pytest.raises(SolverFailure) as got:
        reconstruct(meas, config)
    with pytest.raises(SolverFailure) as want:
        admm_reference(meas, config)
    assert got.value.iteration == want.value.iteration


def test_back_to_back_solves_of_different_sides_share_no_state():
    config = SolverConfig(max_iters=120, log_every=30)
    for meas in (ecg_measurements(0.6, seed=2), phantom_measurements(0.3, 1), ecg_measurements(0.6, seed=2)):
        assert_matches_reference(meas, config)
