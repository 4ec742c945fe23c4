import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lw3d import autodiff, tensor
from lw3d.graph import LayerSpec, ModuleGraph, ShapeError, SplitSpec
from lw3d.tensor import Shape5, Tensor5D


def rand_tensor(rng, shape):
    return Tensor5D(rng.standard_normal(shape).astype(np.float32))


class TestTensor5D:
    def test_layout_index_formula(self):
        # element (n,c,t,h,w) must live at ((((n*C+c)*T+t)*H+h)*W+w
        n_, c_, t_, h_, w_ = 2, 3, 2, 2, 3
        data = np.arange(n_ * c_ * t_ * h_ * w_, dtype=np.float32).reshape(
            n_, c_, t_, h_, w_
        )
        x = Tensor5D(data)
        flat = x.data.reshape(-1)
        for n in range(n_):
            for c in range(c_):
                for t in range(t_):
                    for h in range(h_):
                        for w in range(w_):
                            idx = ((((n * c_ + c) * t_ + t) * h_ + h) * w_ + w)
                            assert flat[idx] == x.data[n, c, t, h, w]

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Tensor5D(np.zeros((2, 3, 4), dtype=np.float32))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            Tensor5D(np.zeros((1, 0, 2, 2, 2), dtype=np.float32))

    def test_coerces_dtype_and_contiguity(self):
        x = Tensor5D(np.zeros((1, 2, 2, 2, 2), dtype=np.float64))
        assert x.data.dtype == np.float32
        assert x.data.flags["C_CONTIGUOUS"]

    def test_shape_properties(self):
        x = Tensor5D(np.zeros((2, 3, 4, 5, 6), np.float32))
        assert x.shape == Shape5(2, 3, 4, 5, 6)
        assert (x.n, x.c, x.t, x.h, x.w) == (2, 3, 4, 5, 6)
        assert x.shape.size == 720


def test_relu_definition():
    x = Tensor5D(np.array([-1.0, 0.0, 4.0]).reshape(1, 3, 1, 1, 1))
    y = tensor.relu(x)
    assert y.data.reshape(-1).tolist() == [0.0, 0.0, 4.0]


def test_relu_idempotent():
    rng = np.random.default_rng(0)
    x = rand_tensor(rng, (2, 3, 4, 5, 6))
    once = tensor.relu(x)
    assert tensor.relu(once) == once


@st.composite
def tensor_and_partition(draw):
    c = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=2))
    t = draw(st.integers(min_value=1, max_value=3))
    h = draw(st.integers(min_value=1, max_value=3))
    w = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    # random composition of c into positive parts
    sizes = []
    left = c
    while left:
        s = draw(st.integers(min_value=1, max_value=left))
        sizes.append(s)
        left -= s
    data = np.random.default_rng(seed).standard_normal((n, c, t, h, w))
    return Tensor5D(data.astype(np.float32)), sizes


@settings(max_examples=120, deadline=None)
@given(tensor_and_partition())
def test_split_concat_round_trip(case):
    """input -> split(sizes) -> concat(every port), run as a network runs."""
    x, sizes = case
    ports = [f"sp:{k}" for k in range(len(sizes))]
    g = ModuleGraph(
        [
            LayerSpec("in", "input", x.shape),
            LayerSpec("sp", "split", SplitSpec(tuple(sizes)), ["in"]),
            LayerSpec("cat", "concat", None, ports),
        ],
        "sst",
    )
    acts = autodiff.forward(g, autodiff.NetworkParams(), x)
    assert [autodiff._resolve(acts, g, ref).c for ref in ports] == sizes
    assert acts["cat"] == x


def test_split_rejects_bad_sizes():
    layers = [
        LayerSpec("in", "input", Shape5(1, 4, 1, 1, 1)),
        LayerSpec("sp", "split", SplitSpec((2, 3)), ["in"]),
    ]
    with pytest.raises(ShapeError, match="do not sum"):
        ModuleGraph(layers, "sst")


def test_concat_rejects_no_parts():
    with pytest.raises(ValueError, match="^concat_channels requires at least one part$"):
        tensor.concat_channels([])


def test_concat_rejects_mismatched_sites():
    a = Tensor5D(np.zeros((1, 2, 2, 2, 2), np.float32))
    b = Tensor5D(np.zeros((1, 2, 3, 2, 2), np.float32))
    with pytest.raises(ValueError):
        tensor.concat_channels([a, b])


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, (2, 3, 4, 5, 6))
        path = tmp_path / "t.lw3d"
        tensor.save_tensor(path, x)
        assert tensor.load_tensor(path) == x

    def test_header_layout(self, tmp_path):
        x = Tensor5D(np.zeros((1, 2, 3, 4, 5), np.float32))
        path = tmp_path / "t.lw3d"
        tensor.save_tensor(path, x)
        raw = path.read_bytes()
        assert raw[:4] == b"LW3D"
        assert raw[4] == 1
        assert struct.unpack("<5Q", raw[5:45]) == (1, 2, 3, 4, 5)
        assert len(raw) == 45 + 4 * 120

    def test_payload_is_little_endian_f32(self, tmp_path):
        x = Tensor5D(
            np.array([1.0, -2.5], dtype=np.float32).reshape(1, 2, 1, 1, 1)
        )
        path = tmp_path / "t.lw3d"
        tensor.save_tensor(path, x)
        payload = path.read_bytes()[45:]
        assert np.frombuffer(payload, dtype="<f4").tolist() == [1.0, -2.5]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lw3d"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(ValueError, match="magic"):
            tensor.load_tensor(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.lw3d"
        path.write_bytes(b"LW3D\x02" + bytes(60))
        with pytest.raises(ValueError, match="version"):
            tensor.load_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        x = Tensor5D(np.zeros((1, 2, 3, 4, 5), np.float32))
        path = tmp_path / "t.lw3d"
        tensor.save_tensor(path, x)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            tensor.load_tensor(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.lw3d"
        path.write_bytes(b"LW3D\x01" + bytes(10))
        with pytest.raises(ValueError, match="truncated header") as e:
            tensor.load_tensor(path)
        assert str(path) in str(e.value)

    def test_oversized_claim_rejected_before_allocating(self, tmp_path):
        # 2**34 floats is 64 GiB; the claim is checked against the file size
        path = tmp_path / "huge.lw3d"
        path.write_bytes(b"LW3D\x01" + struct.pack("<5Q", 2**17, 2**17, 1, 1, 1) + bytes(8))
        with pytest.raises(ValueError, match="truncated payload") as e:
            tensor.load_tensor(path)
        assert str(path) in str(e.value)

    def test_dims_whose_product_wraps_int64_rejected(self, tmp_path):
        # 2**33 * 2**31 == 2**64 wraps to 0 in int64 arithmetic
        path = tmp_path / "wrap.lw3d"
        path.write_bytes(b"LW3D\x01" + struct.pack("<5Q", 2**33, 2**31, 1, 1, 1))
        with pytest.raises(ValueError, match="truncated payload") as e:
            tensor.load_tensor(path)
        assert str(path) in str(e.value)


def _header(version, dims):
    return tensor.MAGIC + bytes([version]) + struct.pack("<5Q", *dims)


# arbitrary bytes, plus well-formed headers with small dims, an arbitrary
# version byte and an arbitrary payload, so every check in the reader is hit
record_bytes = st.one_of(
    st.binary(max_size=120),
    st.builds(
        lambda version, dims, payload: _header(version, dims) + payload,
        st.sampled_from([tensor.FORMAT_VERSION, 0, 2, 9]),
        st.tuples(*[st.integers(min_value=0, max_value=3)] * 5),
        st.binary(max_size=200),
    ),
)


@settings(max_examples=200, deadline=None)
@given(raw=record_bytes)
def test_load_tensor_loads_or_raises_value_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "t.lw3d"
    path.write_bytes(raw)
    try:
        x = tensor.load_tensor(path)
    except ValueError as e:
        assert str(path) in str(e) and "\n" not in str(e)
    else:
        assert 45 + 4 * x.shape.size <= len(raw)
