"""Property tests of the tensor file formats: text and binary round trips are
value- and sign-exact for every finite double."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ttkit import io

MAX = np.finfo(np.float64).max
TINY = np.finfo(np.float64).smallest_subnormal
EDGES = np.array([0.0, -0.0, TINY, -TINY, np.finfo(np.float64).tiny, MAX, -MAX, 1.0 / 3.0])

finite_tensors = arrays(
    np.float64,
    array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4),
    elements=st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EDGES.tolist()),
)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("tensors")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(t=finite_tensors)
@example(t=np.array(-0.0))
@example(t=EDGES)
@example(t=EDGES.reshape(2, 2, 2))
def test_text_and_binary_round_trips_are_exact(folder, t):
    text, binary, rewritten = folder / "t.json", folder / "t.ttk", folder / "again.ttk"
    io.write_tensor(text, t)
    io.write_tensor(binary, t)
    for path in (text, binary):
        back = io.read_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back, t)
        assert np.array_equal(np.signbit(back), np.signbit(t))
    # Rewriting what was read, from either format, gives the same bytes.
    for path in (binary, text):
        io.write_tensor(rewritten, io.read_tensor(path))
        assert rewritten.read_bytes() == binary.read_bytes()
