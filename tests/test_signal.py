import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cstv.signal import (
    CSV_WRITE_CHUNK,
    Signal1D,
    SignalFormatError,
    flatten_to_signal,
    load_signal_csv,
    reshape_to_image,
    save_signal_csv,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
signals = arrays(np.float64, st.integers(1, 200), elements=finite_floats).map(Signal1D)


def test_reshape_even_square():
    img = reshape_to_image(np.array([1, 2, 3, 4]))
    assert img.shape[0] == 2
    assert img.tolist() == [[1, 3], [2, 4]]


def test_reshape_single_sample():
    img = reshape_to_image(np.array([5]))
    assert img.shape[0] == 1
    assert img.tolist() == [[5]]


def test_reshape_with_padding():
    img = reshape_to_image(np.array([1, 2, 3, 4, 5]))
    assert img.shape[0] == 3
    assert img.tolist() == [[1, 4, 0], [2, 5, 0], [3, 0, 0]]


def test_flatten_examples():
    assert flatten_to_signal(np.array([[1, 3], [2, 4]]), 4).tolist() == [1, 2, 3, 4]
    assert flatten_to_signal(np.array([[1, 4, 0], [2, 5, 0], [3, 0, 0]]), 5).tolist() == [1, 2, 3, 4, 5]
    assert flatten_to_signal(np.array([[7]]), 1).tolist() == [7]


def test_empty_signal_rejected():
    with pytest.raises(ValueError):
        Signal1D([])


def test_nan_signal_rejected():
    with pytest.raises(ValueError):
        Signal1D([1.0, float("nan")])
    with pytest.raises(ValueError):
        Signal1D([float("inf")])


def test_flatten_length_must_fit():
    for n in (5, 0, -1):
        with pytest.raises(ValueError):
            flatten_to_signal(np.array([[1, 2], [3, 4]]), n)


def test_equality_is_identity_and_hash_works():
    a, b = Signal1D([1.0, 2.0]), Signal1D([1.0, 2.0])
    assert a == a and a != b
    assert hash(a) == hash(a)


def test_signal_is_immutable():
    s = Signal1D([1.0, 2.0])
    for copy in (s, pickle.loads(pickle.dumps(s))):
        with pytest.raises(ValueError):
            copy.samples[0] = 9.0


@given(signals)
def test_roundtrip_is_bit_exact(s):
    back = flatten_to_signal(reshape_to_image(s.samples), len(s))
    assert len(back) == len(s)
    assert np.array_equal(back, s.samples)


@given(signals)
def test_padding_positions_are_zero(s):
    img = reshape_to_image(s.samples)
    flat = img.reshape(-1, order="F")
    assert np.all(flat[len(s):] == 0.0)


@given(st.integers(1, 5000))
def test_side_is_minimal(n):
    side = reshape_to_image(np.ones(n)).shape[0]
    assert side * side >= n
    assert (side - 1) * (side - 1) < n


def test_csv_one_value_per_line(tmp_path):
    p = tmp_path / "s.csv"
    text = b"1.5\n\n  -2.25 \n3.0\n"
    # spreadsheet "CSV UTF-8" exports and Notepad start the file with a byte-order mark
    for data in (text, b"\xef\xbb\xbf" + text):
        p.write_bytes(data)
        s = load_signal_csv(p)
        assert s.samples.tolist() == [1.5, -2.25, 3.0]


def test_csv_single_comma_row(tmp_path):
    # one value per line is the one layout
    p = tmp_path / "s.csv"
    p.write_text("1.5, -2.25, 3.0\n")
    with pytest.raises(SignalFormatError, match="could not convert"):
        load_signal_csv(p)


@pytest.mark.parametrize("body", ["nan\n1.0\n", "1.0\ninf\n", "1.0\n-inf\n"])
def test_csv_rejects_non_finite(tmp_path, body):
    p = tmp_path / "s.csv"
    p.write_text(body)
    with pytest.raises(SignalFormatError):
        load_signal_csv(p)


def test_csv_rejects_garbage_and_empty(tmp_path):
    p = tmp_path / "s.csv"
    # a byte-order mark is skipped only where it starts the file
    for data in (b"1.0\nhello\n", b"1.0\n\xef\xbb\xbf2.0\n"):
        p.write_bytes(data)
        with pytest.raises(SignalFormatError):
            load_signal_csv(p)
    p.write_text("\n\n")
    with pytest.raises(SignalFormatError):
        load_signal_csv(p)


@given(signals)
@settings(max_examples=25)
def test_csv_save_load_roundtrip(tmp_path_factory, s):
    p = tmp_path_factory.mktemp("csv") / "s.csv"
    save_signal_csv(s, p)
    back = load_signal_csv(p)
    assert np.array_equal(back.samples, s.samples)


def test_csv_save_writes_each_value_repr_across_chunks(tmp_path):
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    samples = np.random.default_rng(0).normal(size=2 * CSV_WRITE_CHUNK + 3)
    samples[CSV_WRITE_CHUNK - 2:CSV_WRITE_CHUNK + 3] = extremes
    p = tmp_path / "s.csv"
    save_signal_csv(Signal1D(samples), p)
    assert p.read_text() == "".join(f"{v!r}\n" for v in samples.tolist())
