import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import naive_dct2, zigzag_by_hand
from cstv.transform import _dct2, _dct_basis, _idct2, zigzag_order


def random_image(side, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(side, side))


def test_constant_image_is_dc_only():
    for side in (1, 2, 3, 5, 8):
        c = 2.5
        spec = _dct2(np.full((side, side), c))
        assert spec[0, 0] == pytest.approx(c * side, rel=1e-12)
        off = spec.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-12


def test_zero_image_maps_to_zero_spectrum():
    spec = _dct2(np.zeros((4, 4)))
    assert np.all(spec == 0.0)


def test_random_4x4_roundtrip_and_oracle():
    img = random_image(4, seed=42)
    spec = _dct2(img)
    assert np.max(np.abs(spec - naive_dct2(img))) < 1e-12
    back = _idct2(spec)
    assert np.max(np.abs(back - img)) < 1e-12


@pytest.mark.parametrize("side", [1, 3, 16, 128, 130, 256])
def test_out_forms_match_allocating_forms_on_dirty_buffers(side):
    x = np.random.default_rng(side).normal(size=(side, side))
    # work is one side x side array; out is a separate array or x itself
    for fn in (_dct2, _idct2):
        expected = fn(x).tobytes()
        out = np.full((side, side), np.nan)
        assert fn(x, out=out, work=np.full((side, side), np.nan)) is out
        assert out.tobytes() == expected
        in_place = x.copy()
        assert fn(in_place, out=in_place, work=np.full((side, side), np.nan)) is in_place
        assert in_place.tobytes() == expected


@pytest.mark.parametrize("side", [126, 127, 128, 129, 130, 256])
def test_agreement_with_dense_product_across_the_split_side(side):
    # even sides from SPLIT_MIN_SIDE (128) up take the even/odd split, the
    # others the dense product itself
    x = random_image(side, seed=side)
    c = _dct_basis(side)
    assert np.max(np.abs(_dct2(x) - c @ x @ c.T)) <= 1e-12
    assert np.max(np.abs(_idct2(x) - c.T @ x @ c)) <= 1e-12


def test_dc_only_spectrum_inverts_to_constant():
    side, c = 5, -1.75
    coeffs = np.zeros((side, side))
    coeffs[0, 0] = c * side
    img = _idct2(coeffs)
    assert np.max(np.abs(img - c)) < 1e-12


def test_zero_spectrum_inverts_to_zero_image():
    img = _idct2(np.zeros((3, 3)))
    assert np.all(img == 0.0)


@pytest.mark.parametrize("side", [2, 3, 4, 8, 16, 64])
def test_roundtrip_error_bound(side):
    for seed in range(5):
        img = random_image(side, seed)
        back = _idct2(_dct2(img))
        assert np.max(np.abs(back - img)) <= 1e-10


@pytest.mark.parametrize("side", [2, 3, 5, 8])
def test_agreement_with_naive_oracle(side):
    img = random_image(side, seed=side)
    spec = _dct2(img)
    assert np.max(np.abs(spec - naive_dct2(img))) <= 1e-10


def test_agreement_with_scipy():
    from scipy.fft import dctn

    img = random_image(16, seed=3)
    spec = _dct2(img)
    assert np.max(np.abs(spec - dctn(img, norm="ortho"))) < 1e-10


@given(st.integers(2, 24), st.integers(0, 10_000))
@settings(max_examples=60)
def test_orthonormality_preserves_inner_products(side, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(side, side))
    b = rng.normal(size=(side, side))
    fa = _dct2(a)
    fb = _dct2(b)
    lhs = float(np.sum(fa * fb))
    rhs = float(np.sum(a * b))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(st.integers(1, 32), st.integers(0, 10_000))
@settings(max_examples=60)
def test_parseval(side, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(side, side))
    spec = _dct2(a)
    assert float(np.sum(spec**2)) == pytest.approx(float(np.sum(a**2)), rel=1e-9)


def zigzag_positions(side):
    order = zigzag_order(side)
    return list(zip(order.rows.tolist(), order.cols.tolist()))


def test_zigzag_small_sides():
    assert zigzag_positions(1) == [(0, 0)]
    assert zigzag_positions(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert zigzag_positions(3) == [
        (0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (1, 2), (2, 1), (2, 2),
    ]


@given(st.integers(1, 40))
def test_zigzag_is_a_bijection(side):
    order = zigzag_order(side)
    linear = order.rows * side + order.cols
    assert sorted(linear.tolist()) == list(range(side * side))
    assert (order.rows[0], order.cols[0]) == (0, 0)


@given(st.integers(1, 20))
def test_zigzag_matches_hand_enumeration(side):
    assert zigzag_positions(side) == zigzag_by_hand(side)


def test_zigzag_rejects_bad_side():
    with pytest.raises(ValueError):
        zigzag_order(0)
