import dataclasses
import hashlib
import importlib.util
import io
import math
import struct
import sys
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lw3d import analysis, autodiff, cli, dataio, gradcheck, ops, tensor
from lw3d.autodiff import (
    NetworkParams,
    Parameter,
    TrainConfig,
    backward,
    calibrate_init,
    forward,
    init_params,
    load_weights,
    predict_scores,
    save_weights,
    sgd_step,
    train_toy,
)
from lw3d.dataio import synth_clip
from lw3d.graph import (
    ARCHS,
    LayerSpec,
    ModuleGraph,
    SplitSpec,
    build_network,
    parameterized_layers,
)
from lw3d.ops import Conv3DSpec, PoolSpec
from lw3d.tensor import Shape5, Tensor5D

TOY_SHAPE = Shape5(1, 3, 8, 32, 32)


def toy_net(arch="gsst", classes=2):
    return build_network(arch, TOY_SHAPE, num_classes=classes, width_mult=0.125)


def toy_dataset(n, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (synth_clip(i % classes, classes, TOY_SHAPE[1:], rng), i % classes)
        for i in range(n)
    ]


# every pool window the builder emits, at the toy and the canonical input
BUILDER_POOLS = sorted(
    {
        layer.params
        for arch in ARCHS
        for shape, width in ((TOY_SHAPE, 0.125), (Shape5(1, 3, 32, 224, 224), 1.0))
        for layer in build_network(arch, shape, 2, width).layers
        if layer.kind == "pool"
    },
    key=repr,
)


# strided, padded and grouped convs
STRIDED_CONVS = [
    Conv3DSpec(2, 4, (3, 3, 3), (2, 2, 2), (1, 1, 1)),
    Conv3DSpec(4, 4, (1, 3, 3), (1, 2, 2), (0, 1, 1), 2),
    Conv3DSpec(4, 6, (3, 1, 1), (2, 1, 1), (1, 0, 0), 2),
]


def first_max_pool_backward(x: np.ndarray, spec: PoolSpec, gout: np.ndarray) -> np.ndarray:
    """Reference max-pool backward, one window at a time: ``np.argmax`` over
    the flattened window picks its first maximum in layout order.  The
    windows go last first, so each input element adds its windows'
    gradients in tap order, as a pass per kernel tap does: a later tap of
    an element is read by an earlier window."""
    pads = [(0, 0), (0, 0), *((p, p) for p in spec.padding)]
    xp = np.pad(x.astype(np.float64), pads, constant_values=-np.inf)
    gxp = np.zeros(xp.shape)
    for n, c, *o in reversed(list(np.ndindex(*gout.shape))):
        corner = [oi * s for oi, s in zip(o, spec.stride)]
        window = tuple(slice(a, a + k) for a, k in zip(corner, spec.kernel))
        tap = np.unravel_index(np.argmax(xp[(n, c, *window)]), spec.kernel)
        gxp[(n, c, *(a + t for a, t in zip(corner, tap)))] += gout[(n, c, *o)]
    return gxp[(..., *(slice(p, p + s) for p, s in zip(spec.padding, x.shape[2:])))]


DTYPE_X = Tensor5D(np.random.default_rng(1).standard_normal((2, 4, 3, 4, 4)))
DTYPE_CONV = Conv3DSpec(4, 6, (3, 1, 3), (1, 1, 1), (1, 0, 1), groups=2)
DTYPE_W = np.random.default_rng(0).standard_normal(DTYPE_CONV.weight_shape).astype(np.float32)
DTYPE_BN = {
    k: np.full(4, v, dtype=np.float32)
    for k, v in (("gamma", 1.5), ("beta", 0.1), ("mean", 0.2), ("var", 0.9))
}
DTYPE_POOL = PoolSpec("max", (2, 3, 3), (1, 2, 2), (0, 1, 1))
DTYPE_AVG_POOL = dataclasses.replace(DTYPE_POOL, kind="avg")

# name: (forward, backward or None); every backward returns a tuple
OPERATORS = {
    "conv3d_lowered": (
        lambda x: ops.conv3d_lowered(x, DTYPE_CONV, DTYPE_W),
        lambda x, g: autodiff.conv3d_backward(x, DTYPE_CONV, DTYPE_W, g),
    ),
    "conv3d_direct": (lambda x: ops.conv3d_direct(x, DTYPE_CONV, DTYPE_W), None),
    "pool_max": (
        lambda x: ops.pool3d(x, DTYPE_POOL),
        lambda x, g: (autodiff.pool3d_backward(x, DTYPE_POOL, g),),
    ),
    "pool_avg": (
        lambda x: ops.pool3d(x, DTYPE_AVG_POOL),
        lambda x, g: (autodiff.pool3d_backward(x, DTYPE_AVG_POOL, g),),
    ),
    "batchnorm": (
        lambda x: ops.batchnorm_infer(x, **DTYPE_BN),
        lambda x, g: autodiff.batchnorm_backward(
            x, DTYPE_BN["gamma"], DTYPE_BN["mean"], DTYPE_BN["var"], g
        ),
    ),
    "relu": (tensor.relu, lambda x, g: (autodiff.relu_backward(x, g),)),
    "shuffle": (
        lambda x: ops.channel_shuffle(x, 2),
        lambda x, g: (autodiff.channel_shuffle_backward(g, 2, x.c),),
    ),
    "softmax": (ops.softmax_channels, None),
}


class TestOperatorGradients:
    """Finite-difference checks per operator; the acceptance suite runs the
    full 20-trial sweep, these keep each op honest at lower cost."""

    @pytest.mark.parametrize("op", gradcheck.OPS)
    def test_analytic_matches_numeric(self, op):
        assert gradcheck.check_op(op, trials=5, seed=3) <= 1e-2

    def test_shuffle_gradient_is_exact_inverse_permutation(self):
        rng = np.random.default_rng(0)
        gout = rng.standard_normal((2, 12, 2, 3, 3)).astype(np.float32)
        gx = autodiff.channel_shuffle_backward(gout, 4, 12)
        # pushing the gradient back through the forward shuffle must
        # reproduce it bit-for-bit: the op is a pure permutation
        redone = ops.channel_shuffle(Tensor5D(gx.astype(np.float32)), 4)
        assert np.array_equal(redone.data, gout)

    def test_shuffle_gradient_is_exact_in_compute_dtype(self):
        rng = np.random.default_rng(1)
        gout = rng.standard_normal((2, 12, 2, 3, 3)).astype(ops.COMPUTE)
        # perm[k] is the input channel that the forward shuffle puts at k
        ramp = np.arange(12, dtype=np.float32).reshape(1, 12, 1, 1, 1)
        perm = ops.channel_shuffle(Tensor5D(ramp), 4).data.ravel().astype(int)
        expected = np.empty_like(gout)
        expected[:, perm] = gout
        assert np.array_equal(autodiff.channel_shuffle_backward(gout, 4, 12), expected)

    @pytest.mark.parametrize("gout_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", OPERATORS)
    def test_dtype_contract(self, op, gout_dtype):
        """Forwards store float32; backwards return ``ops.COMPUTE`` even from
        float32 weights, batch-norm vectors and output gradients."""
        forward, backward = OPERATORS[op]
        y = forward(DTYPE_X)
        assert y.data.dtype == np.float32
        if backward is not None:
            gout = np.random.default_rng(2).standard_normal(y.shape).astype(gout_dtype)
            for grad in backward(DTYPE_X, gout):
                assert grad.dtype == ops.COMPUTE

    def test_batchnorm_bytes_do_not_depend_on_vector_dtype(self):
        """The bn kernels cast their vectors to ``ops.COMPUTE`` before adding
        ``BN_EPS``, so float32 vectors give the bytes their float64 copies do."""
        wide = {k: v.astype(np.float64) for k, v in DTYPE_BN.items()}
        gout = np.random.default_rng(2).standard_normal(DTYPE_X.data.shape)
        outs = [
            (
                ops.batchnorm_infer(DTYPE_X, **bn).data,
                *autodiff.batchnorm_backward(DTYPE_X, bn["gamma"], bn["mean"], bn["var"], gout),
            )
            for bn in (DTYPE_BN, wide)
        ]
        for narrow_out, wide_out in zip(*outs):
            assert narrow_out.dtype == wide_out.dtype
            assert narrow_out.tobytes() == wide_out.tobytes()

    def test_check_op_rejects_unknown_op(self):
        with pytest.raises(ValueError, match=r"^unknown op 'nope'; choose from \('conv3d', "):
            gradcheck.check_op("nope")

    def test_check_op_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="at least one trial"):
            gradcheck.check_op("relu", trials=0)

    def test_max_pool_ties_route_to_first_in_layout_order(self):
        x = Tensor5D(np.ones((1, 1, 2, 2, 2), dtype=np.float32))
        spec = PoolSpec("max", (2, 2, 2), (2, 2, 2), (0, 0, 0))
        gx = autodiff.pool3d_backward(x, spec, np.full((1, 1, 1, 1, 1), 5.0))
        expected = np.zeros((1, 1, 2, 2, 2))
        expected[0, 0, 0, 0, 0] = 5.0
        assert np.array_equal(gx, expected)

    def test_max_pool_ties_route_to_the_layout_first_tap_across_axes(self):
        """One 3x3x3 window per channel, with two tied maxima each: channel 0
        at taps (t0, h2, w0) and (t1, h0, w0), channel 1 the same taps with
        -0.0 before 0.0, which compare equal, and channel 2 at (t0, h0, w2)
        and (t0, h1, w0).  The first in layout order wins every tie."""
        x = np.full((1, 3, 3, 3, 3), -1.0, dtype=np.float32)
        x[0, 0, 0, 2, 0] = x[0, 0, 1, 0, 0] = 2.0
        x[0, 1, 0, 2, 0], x[0, 1, 1, 0, 0] = -0.0, 0.0
        x[0, 2, 0, 0, 2] = x[0, 2, 0, 1, 0] = 3.0
        spec = PoolSpec("max", (3, 3, 3))
        gout = np.array([5.0, 7.0, 9.0]).reshape(1, 3, 1, 1, 1)
        gx = autodiff.pool3d_backward(Tensor5D(x), spec, gout)
        expected = np.zeros(x.shape)
        expected[0, :2, 0, 2, 0] = 5.0, 7.0
        expected[0, 2, 0, 0, 2] = 9.0
        assert np.array_equal(gx, expected)
        assert np.array_equal(gx, first_max_pool_backward(x, spec, gout))

    def test_max_pool_backward_adds_each_elements_parts_in_tap_order(self):
        """Channel 0's centre wins all 27 windows of a stride-1 3x3x3 pool,
        and their non-integer gradients sum to a float64 value that depends
        on the order.  A per-tap pass adds them in tap order, which takes
        the windows last first.  Channel 1 is rounded noise: ties, and
        elements that win several windows."""
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 0.0, (1, 2, 3, 3, 3)).astype(np.float32)
        x[0, 0, 1, 1, 1] = 1.0
        x[0, 1] = np.round(rng.standard_normal((3, 3, 3)))
        spec = PoolSpec("max", (3, 3, 3), (1, 1, 1), (1, 1, 1))
        gout = rng.standard_normal((1, 2, 3, 3, 3))
        in_tap_order = in_site_order = 0.0
        for part in gout[0, 0].ravel()[::-1]:
            in_tap_order += part
        for part in gout[0, 0].ravel():
            in_site_order += part
        assert in_tap_order != in_site_order  # so the order shows
        gx = autodiff.pool3d_backward(Tensor5D(x), spec, gout)
        assert gx[0, 0, 1, 1, 1] == in_tap_order
        assert gx.tobytes() == first_max_pool_backward(x, spec, gout).tobytes()

    def test_max_pool_window_of_minus_inf_routes_to_tap_0(self):
        """A window with nothing above -inf gives its gradient to its tap 0,
        as a scan that takes only a strictly greater tap does, and to no
        one where tap 0 is padding: at the corner of the input, and past
        the edge of the block of finite values."""
        rng = np.random.default_rng(2)
        x = np.full((1, 2, 4, 6, 6), -np.inf, dtype=np.float32)
        x[0, :, 2:, 3:, 3:] = np.round(rng.standard_normal((2, 2, 3, 3)))
        spec = PoolSpec("max", (2, 3, 3), (1, 1, 1), (1, 1, 1))
        gout = rng.standard_normal(tuple(spec.output_shape(Shape5(*x.shape))))
        gx = autodiff.pool3d_backward(Tensor5D(x), spec, gout)
        assert gx.tobytes() == first_max_pool_backward(x, spec, gout).tobytes()

    def test_max_pool_skips_nan_forward_and_backward(self):
        """Both directions skip nan: [1, nan, 3, 2] pools to 3.0, whose
        element takes the gradient.  A window of nothing but nan is one with
        nothing above -inf: it outputs -inf and routes to its tap 0, or to
        no one where tap 0 is padding (the first of two windows here)."""
        x = Tensor5D(np.array([1.0, np.nan, 3.0, 2.0]).reshape(1, 1, 1, 1, 4))
        spec = PoolSpec("max", (1, 1, 4))
        assert ops.pool3d(x, spec).data.ravel().tolist() == [3.0]
        gx = autodiff.pool3d_backward(x, spec, np.full((1, 1, 1, 1, 1), 5.0))
        assert gx.ravel().tolist() == [0.0, 0.0, 5.0, 0.0]

        x = Tensor5D(np.full((1, 1, 1, 1, 3), np.nan))
        spec = PoolSpec("max", (1, 1, 4), padding=(0, 0, 1))
        assert ops.pool3d(x, spec).data.ravel().tolist() == [-np.inf, -np.inf]
        gx = autodiff.pool3d_backward(x, spec, np.array([5.0, 7.0]).reshape(1, 1, 1, 1, 2))
        assert gx.ravel().tolist() == [7.0, 0.0, 0.0]

    @pytest.mark.parametrize("spec", BUILDER_POOLS, ids=repr)
    def test_builder_pool_windows_match_finite_differences(self, spec):
        assert gradcheck._check_pool(np.random.default_rng(0), spec) <= 1e-2

    def test_max_pool_backward_over_255_taps_matches_first_max_reference(self):
        """A 7x7x7 window has 343 taps, more than a uint8 tap index holds; the
        batch-2 input is all ties except late maxima placed past tap 255."""
        spec = PoolSpec("max", (7, 7, 7), (2, 3, 3), (3, 3, 3))
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, (2, 2, 7, 9, 9)).astype(np.float32)
        x[1, 0] = 0.0
        x[1, 0, 6, 6, 5:] = 1.0  # tied maxima past tap 255 of the last windows
        y = ops.pool3d(Tensor5D(x), spec)
        # integer gradients sum exactly in any order where windows overlap
        gout = rng.integers(-8, 9, y.shape).astype(np.float64)
        gx = autodiff.pool3d_backward(Tensor5D(x), spec, gout)
        assert np.array_equal(gx, first_max_pool_backward(x, spec, gout))

    def test_max_pool_backward_over_255_taps_in_row_blocks(self, monkeypatch):
        """The 343-tap case above with each row block one clip's channels."""
        monkeypatch.setattr(ops, "_POOL_BLOCK_BYTES", 2 * 7 * 9 * 9 * 4)
        assert len(ops._row_blocks(np.empty((2, 2, 7, 9, 9), np.float32))) == 2
        self.test_max_pool_backward_over_255_taps_matches_first_max_reference()

    @pytest.mark.parametrize("spec", STRIDED_CONVS, ids=repr)
    def test_strided_padded_conv_matches_finite_differences(self, spec):
        assert gradcheck._check_conv(np.random.default_rng(0), spec) <= 1e-2

    @pytest.mark.parametrize("spec", STRIDED_CONVS, ids=repr)
    def test_conv_backward_of_a_batch_is_its_clips_backwards(self, spec):
        rng = np.random.default_rng(4)
        x = Tensor5D(rng.standard_normal((3, spec.in_channels, 5, 6, 7)))
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        gout = rng.standard_normal(tuple(spec.output_shape(x.shape)))
        gx, gw = autodiff.conv3d_backward(x, spec, w, gout)
        per_clip = [
            autodiff.conv3d_backward(Tensor5D(x.data[i : i + 1]), spec, w, gout[i : i + 1])
            for i in range(3)
        ]
        for i, (gx_i, _) in enumerate(per_clip):
            assert np.array_equal(gx[i : i + 1], gx_i)
        gw_sum = sum(gw_i for _, gw_i in per_clip)
        assert np.abs(gw - gw_sum).max() <= 1e-12 * np.abs(gw_sum).max()

    @pytest.mark.parametrize("spec", STRIDED_CONVS, ids=repr)
    def test_conv_weight_grad_is_conv_backwards_gw_and_scatters_nothing(self, spec, monkeypatch):
        rng = np.random.default_rng(6)
        x = Tensor5D(rng.standard_normal((2, spec.in_channels, 5, 6, 7)))
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        gout = rng.standard_normal(tuple(spec.output_shape(x.shape)))
        monkeypatch.setattr(ops, "TILE_BYTES", 1)  # a tile per output row
        _, gw = autodiff.conv3d_backward(x, spec, w, gout)
        calls = count_calls(monkeypatch, [(ops, "_col2im")])
        assert autodiff.conv3d_weight_grad(x, spec, w, gout).tobytes() == gw.tobytes()
        assert calls["_col2im"] == []

    def test_avg_pool_spreads_uniformly(self):
        x = Tensor5D(np.zeros((1, 1, 2, 2, 2), dtype=np.float32))
        spec = PoolSpec("avg", (2, 2, 2), (2, 2, 2), (0, 0, 0))
        gx = autodiff.pool3d_backward(x, spec, np.full((1, 1, 1, 1, 1), 8.0))
        assert np.array_equal(gx, np.ones((1, 1, 2, 2, 2)))

    def test_softmax_xent_gradient_sums_to_zero(self):
        labels = np.array([1, 0])
        logits = np.random.default_rng(0).standard_normal((2, 3, 1, 2, 2))
        loss, grad = autodiff.site_xent(logits, labels)
        assert loss > 0
        # every (clip, site) column of the gradient sums to zero over classes
        assert np.abs(grad.sum(axis=1)).max() < 1e-12
        assert (grad[np.arange(2), labels] < 0).all()  # pull the true class up


def tiny_graph():
    """A graph exercising every op kind on a hand-checkable scale."""
    layers = [
        LayerSpec("input", "input", Shape5(2, 2, 4, 6, 6)),
        LayerSpec("c1", "conv", Conv3DSpec(2, 4, (3, 3, 3), (1, 1, 1), (1, 1, 1), 1), ["input"]),
        LayerSpec("b1", "bn", 4, ["c1"]),
        LayerSpec("r1", "relu", None, ["b1"]),
        LayerSpec("p1", "pool", PoolSpec("max", (2, 2, 2), (2, 2, 2), (0, 0, 0)), ["r1"]),
        LayerSpec("sh", "shuffle", 2, ["p1"]),
        LayerSpec("sp", "split", SplitSpec((3, 1)), ["sh"]),
        LayerSpec("cat", "concat", None, ["sp:1", "sp:0"]),
        LayerSpec("head", "conv", Conv3DSpec(4, 3, (1, 1, 1), (1, 1, 1), (0, 0, 0), 1), ["cat"]),
        LayerSpec("pool", "pool", PoolSpec("avg", (2, 3, 3), (1, 1, 1), (0, 0, 0)), ["head"]),
        LayerSpec("out", "softmax", None, ["pool"]),
    ]
    return ModuleGraph(layers, "i3d", num_classes=3)


def collecting_step():
    """A ``backward`` step that updates nothing and keeps each gradient it is
    handed, keyed by ``id`` of its Parameter; a second call for one tensor
    fails."""
    grads: dict[int, np.ndarray] = {}

    def step(par: Parameter, grad: np.ndarray) -> None:
        assert id(par) not in grads
        grads[id(par)] = grad

    return step, grads


def parameter_tensors(p: NetworkParams) -> list[Parameter]:
    return [*p.conv.values(), *(t for s in p.bn.values() for t in (s.gamma, s.beta))]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str, monkeypatch):
    """Import ``perfbench/<name>.py`` by path under its own name, which is how
    the benchmark's modules import each other."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkHooks:
    """perfbench swaps ``ops.conv3d_lowered`` for the ``conv3d_direct`` oracle
    and counts patch bytes by wrapping ``ops._im2col``, both at the module
    attribute; a call that bypasses either would make those checks vacuous."""

    def test_tracer_mac_check_covers_every_conv(self, monkeypatch):
        """The traced benchmark run wraps ``autodiff._resolve`` and
        ``ops._im2col`` by name and checks every conv's counted MACs against
        ``analysis._layer_flops``; a rename or a wrong count in any of them
        would otherwise break only the benchmark."""
        tracer_mod = load_perfbench("tracer", monkeypatch)
        for name in tracer_mod.MODULES:
            importlib.import_module("lw3d." + name)
        graphs = [toy_net(arch) for arch in ARCHS]
        # calibration must run through autodiff.forward, where the tracer
        # registers the graphs it checks
        probed = toy_net()
        probe = Tensor5D(np.random.default_rng(0).standard_normal(TOY_SHAPE).astype(np.float32))
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            autodiff.calibrate_init(probed, autodiff.init_params(probed, 0), probe)
            for g in graphs:
                p = autodiff.init_params(g, 0)
                acts = autodiff.forward(g, p, Tensor5D(np.ones(TOY_SHAPE, np.float32)))
                autodiff.backward(g, p, acts, np.array([1]), collecting_step()[0])
        finally:
            tracer.uninstall()
        checked, bad = tracer.mac_check()
        assert bad == []
        assert checked == sum(
            layer.kind == "conv" for g in [probed, *graphs] for layer in g.layers
        )

    def test_tracer_counts_the_patch_bytes_the_shapes_imply(self, monkeypatch):
        """Over one forward of each arch, each conv class's ``im2col_bytes``
        is the float64 patch matrices its convs' shapes imply, one per group
        and tile: batch x c/groups x kernel volume x output sites x 8 per
        group."""
        tracer_mod = load_perfbench("tracer", monkeypatch)
        for name in tracer_mod.MODULES:
            importlib.import_module("lw3d." + name)
        graphs = [toy_net(arch) for arch in ARCHS]
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            for g in graphs:
                autodiff.forward(g, init_params(g, 0), Tensor5D(np.ones(TOY_SHAPE, np.float32)))
        finally:
            tracer.uninstall()
        want = dict.fromkeys(tracer_mod.CONV_CLASSES, 0)
        for g in graphs:
            for layer in g.layers:
                if layer.kind == "conv":
                    spec, out = layer.params, g.shapes[layer.id]
                    per_group = out.n * (spec.in_channels // spec.groups) * math.prod(spec.kernel)
                    want[tracer_mod.conv_class(spec.kernel)] += (
                        spec.groups * per_group * out.t * out.h * out.w * 8
                    )
        assert all(want.values())
        assert {c: tracer.counts[f"ops.conv_fwd.{c}.im2col_bytes"] for c in want} == want

    def test_tracer_sees_one_sgd_step_per_tensor_inside_backward(self, monkeypatch):
        """``train_toy`` builds its step from ``autodiff.sgd_step`` when it
        runs, so the tracer's wrapper times every per-tensor update, and
        each update runs inside ``autodiff.backward``."""
        tracer_mod = load_perfbench("tracer", monkeypatch)
        for name in tracer_mod.MODULES:
            importlib.import_module("lw3d." + name)
        g = toy_net()
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=2)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            _, params = train_toy(g, toy_dataset(2), cfg, seed=0)
        finally:
            tracer.uninstall()
        steps = [i for i, name in enumerate(tracer.names) if name == "autodiff.sgd_step"]
        assert len(steps) == len(parameter_tensors(params))
        for i in steps:
            assert tracer.names[tracer.parents[i]] == "autodiff.backward"
        spans = tracer.totals(0, len(tracer.names))
        values = tracer_mod.layer_values(spans, {}, 1, dict(tracer.counts), {})
        assert values["autodiff.sgd_step.calls"] == len(steps)
        assert values["autodiff.sgd_step.s"] > 0

    def test_tracer_covers_the_liveness_forward_of_infer(self, tmp_path, monkeypatch):
        """``lw3d infer`` keeps only the output; the tracer must still count
        every window's conv MACs and see one softmax output retained."""
        tracer_mod = load_perfbench("tracer", monkeypatch)
        for name in tracer_mod.MODULES:
            importlib.import_module("lw3d." + name)
        g = toy_net()
        weights = tmp_path / "w.lw3d"
        save_weights(weights, g, init_params(g, 0))
        clip = dataio.synth_dataset(2, 1, (3, 12, 32, 32), 0, str(tmp_path / "data"))[0].path
        windows = 3
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            code = cli.main([
                "infer", "--arch", "gsst", "--input", "3x8x32x32", "--width-mult", "0.125",
                "--classes", "2", "--weights", str(weights), "--tensor", clip,
                "--windows", str(windows),
            ])
        finally:
            tracer.uninstall()
        assert code == 0
        checked, bad = tracer.mac_check()
        assert bad == []
        assert checked == sum(layer.kind == "conv" for layer in g.layers)
        shapes = g.shapes
        static = sum(
            analysis._layer_flops(layer, shapes[layer.id])
            for layer in g.layers if layer.kind == "conv"
        )
        counted = sum(tracer.counts[f"ops.conv_fwd.{c}.macs"] for c in tracer_mod.CONV_CLASSES)
        assert counted == windows * static
        assert tracer.retained_peak == shapes[g.output_id].size * 4  # float32 scores

    def test_infer_setup_iteration_and_oracle_pass(self, tmp_path, monkeypatch):
        """The benchmark's set-up (``load_clip`` on rgb and depth clips,
        calibration, the weight round trip), one ``infer``/``fuse`` iteration
        and the ``conv3d_direct`` oracle swap, on a toy network; otherwise a
        break in any of them shows only in a benchmark run."""
        workloads = load_perfbench("workloads", monkeypatch)
        checks = load_perfbench("checks", monkeypatch)
        spec = workloads.InferSpec(input="3x8x32x32", width_mult="0.125")
        spec.generate(0, str(tmp_path))
        outputs = spec.iterate(0, str(tmp_path))
        oracle = checks.oracle_scores(spec, 0, str(tmp_path))
        assert checks.oracle_problems(oracle, spec.classes) == []
        assert checks.count_failures(spec, [outputs], outputs, oracle) == (12, 0)

    def test_forward_calls_lowered_conv_through_ops(self, monkeypatch):
        g = toy_net()
        real = ops.conv3d_lowered
        tags = []

        def spy(x, spec, weights, counter=None, tag=None):
            tags.append(tag)
            return real(x, spec, weights, counter, tag)

        monkeypatch.setattr(ops, "conv3d_lowered", spy)
        forward(g, init_params(g, 0), Tensor5D(np.ones(TOY_SHAPE, np.float32)))
        assert tags == [layer.id for layer in g.layers if layer.kind == "conv"]

    # every op a KINDS entry reaches besides ops.conv3d_lowered, by module
    KINDS_OPS = [
        (ops, "pool3d"), (ops, "batchnorm_infer"), (tensor, "relu"),
        (ops, "channel_shuffle"), (tensor, "concat_channels"), (ops, "softmax_channels"),
        (autodiff, "conv3d_backward"), (autodiff, "pool3d_backward"),
        (autodiff, "batchnorm_backward"), (autodiff, "relu_backward"),
        (autodiff, "channel_shuffle_backward"),
    ]

    def test_layer_table_looks_every_op_up_when_called(self, monkeypatch):
        """The tracer wraps these at their module attributes; a table entry
        holding a function bound at import would run unwrapped."""
        called = set()
        for mod, name in self.KINDS_OPS:

            def spy(*args, _real=getattr(mod, name), _name=name):
                called.add(_name)
                return _real(*args)

            monkeypatch.setattr(mod, name, spy)
        g = toy_net()
        p = init_params(g, 0)
        acts = forward(g, p, Tensor5D(np.ones(TOY_SHAPE, np.float32)))
        backward(g, p, acts, np.array([1]), collecting_step()[0])
        assert called == {name for _, name in self.KINDS_OPS}

    @staticmethod
    def patch_calls(run):
        """The ``(batch, channels)`` and tile of each ``ops._im2col`` call
        ``run()`` makes, and its one ``ops._time_tiles`` request (arguments
        and plan), on a 2-group conv over 2 clips of 4 channels whose 3
        output steps of 4 rows each take a tile per row."""
        real_im2col, real_tiles = ops._im2col, ops._time_tiles
        patches, requests = [], []

        def im2col_spy(xp, plan):
            patches.append((xp.shape[:2], plan))
            return real_im2col(xp, plan)

        def tiles_spy(spec, x):
            requests.append((spec, x, real_tiles(spec, x)))
            return requests[-1][2]

        spec = Conv3DSpec(4, 6, (3, 3, 3), (1, 1, 1), (1, 1, 1), 2)
        x = Tensor5D(np.ones((2, 4, 3, 4, 4), np.float32))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "_im2col", im2col_spy)
            mp.setattr(ops, "_time_tiles", tiles_spy)
            mp.setattr(ops, "TILE_BYTES", 1)
            run(x, spec, np.ones(spec.weight_shape, np.float32))
        assert len(requests) == 1 and len(requests[0][2]) == 12
        return patches, requests[0]

    @staticmethod
    def backward(x, spec, w):
        return autodiff.conv3d_backward(x, spec, w, np.ones(spec.output_shape(x.shape)))

    def test_lowered_conv_builds_patches_through_ops(self):
        patches, (*_, plan) = self.patch_calls(ops.conv3d_lowered)
        # one patch matrix per tile, for the whole batch and every group
        assert patches == [((2, 4), tile) for tile in plan]

    def test_conv_backward_builds_patches_through_ops(self):
        patches, (*_, plan) = self.patch_calls(self.backward)
        assert patches == [((2, 4), tile) for tile in plan]

    def test_conv_forward_and_backward_share_one_tile_plan(self):
        assert self.patch_calls(self.backward)[1] == self.patch_calls(ops.conv3d_lowered)[1]


class TestEndToEndBackward:
    def test_weight_gradients_match_finite_differences(self):
        g = tiny_graph()
        rng = np.random.default_rng(5)
        x = Tensor5D(rng.standard_normal((2, 2, 4, 6, 6)).astype(np.float32))
        labels = np.array([0, 2])
        params = init_params(g, 1)

        def loss_value():
            scratch = init_params(g, 1)
            for lid in params.conv:
                scratch.conv[lid].value = params.conv[lid].value.copy()
            for lid, st in params.bn.items():
                scratch.bn[lid].gamma.value = st.gamma.value.copy()
                scratch.bn[lid].beta.value = st.beta.value.copy()
            return backward(g, scratch, forward(g, scratch, x), labels, collecting_step()[0])

        step, grads = collecting_step()
        backward(g, params, forward(g, params, x), labels, step)
        eps = 1e-3
        b1 = params.bn["b1"]
        for par in (params.conv["c1"], params.conv["head"], b1.gamma, b1.beta):
            w = par.value
            analytic = grads[id(par)]
            coords = [
                np.unravel_index(i, w.shape)
                for i in rng.choice(w.size, size=4, replace=False)
            ]
            for idx in coords:
                old = w[idx]
                w[idx] = old + eps
                hi = loss_value()
                w[idx] = old - eps
                lo = loss_value()
                w[idx] = old
                numeric = (hi - lo) / (2 * eps)
                assert analytic[idx] == pytest.approx(numeric, abs=2e-3, rel=2e-2)

    def test_loss_matches_score_cross_entropy(self):
        g = tiny_graph()
        rng = np.random.default_rng(2)
        x = Tensor5D(rng.standard_normal((2, 2, 4, 6, 6)).astype(np.float32))
        labels = np.array([1, 0])
        params = init_params(g, 0)
        acts = forward(g, params, x)
        loss = backward(g, params, acts, labels, collecting_step()[0])
        scores = predict_scores(g, acts)
        expected = -np.log(scores[np.arange(2), labels]).mean()
        assert loss == pytest.approx(expected, rel=1e-5)

    def test_requires_softmax_output(self):
        g = tiny_graph()
        trimmed = ModuleGraph(g.layers[:-1], g.arch, g.num_classes)
        params = init_params(trimmed, 0)
        x = Tensor5D(np.zeros((2, 2, 4, 6, 6), dtype=np.float32))
        with pytest.raises(ValueError, match="softmax"):
            backward(
                trimmed, params, forward(trimmed, params, x), np.array([0, 1]),
                collecting_step()[0],
            )


    @pytest.mark.parametrize("arch", ARCHS)
    def test_no_gradient_of_the_input_is_computed(self, arch, monkeypatch):
        """Nobody reads the input's gradient: the conv that reads the input
        computes only its weight gradient, and nothing scatters into or
        allocates an input-shaped buffer.  Every parameter still steps."""
        g = toy_net(arch)
        p = init_params(g, 0)
        acts = forward(g, p, Tensor5D(np.ones(TOY_SHAPE, np.float32)))
        calls = count_calls(monkeypatch, [
            (autodiff, "conv3d_weight_grad"), (autodiff, "conv3d_backward"),
            (ops, "_col2im"), (np, "zeros"),
        ])
        step, grads = collecting_step()
        backward(g, p, acts, np.array([1]), step)
        convs = [layer for layer in g.layers if layer.kind == "conv"]
        stem = [layer for layer in convs if g.ports[layer.inputs[0]][0] == g.layers[0].id]
        assert len(stem) == 1
        assert [args[0].shape for args, _ in calls["conv3d_weight_grad"]] == [TOY_SHAPE]
        assert len(calls["conv3d_backward"]) == len(convs) - 1
        assert all(args[0].shape != TOY_SHAPE for args, _ in calls["conv3d_backward"])
        assert all(args[0].shape != TOY_SHAPE for args, _ in calls["_col2im"])
        assert not any(args and args[0] == TOY_SHAPE for args, _ in calls["zeros"])
        assert len(grads) == len(parameter_tensors(p))

    def test_no_input_shaped_buffer_where_a_pool_reads_the_input(self, monkeypatch):
        shape = Shape5(1, 2, 2, 4, 4)
        g = ModuleGraph([
            LayerSpec("in", "input", shape),
            LayerSpec("p0", "pool", PoolSpec("max", (1, 2, 2), (1, 2, 2)), ["in"]),
            LayerSpec("c1", "conv", Conv3DSpec(2, 4, (1, 1, 1)), ["p0"]),
            LayerSpec("out", "softmax", None, ["c1"]),
        ], "i3d", num_classes=4)
        p = init_params(g, 0)
        x = Tensor5D(np.random.default_rng(2).standard_normal(shape).astype(np.float32))
        acts = forward(g, p, x)
        calls = count_calls(monkeypatch, [(np, "zeros")])
        step, grads = collecting_step()
        backward(g, p, acts, np.array([1]), step)
        assert not any(args and args[0] == shape for args, _ in calls["zeros"])
        assert len(grads) == 1


class TestSgd:
    def test_momentum_hand_values(self):
        p = Parameter.of(np.zeros(1))
        sgd_step(p, np.ones(1), 1.0)  # at the clip norm, so not rescaled
        assert p.value[0] == pytest.approx(-1.0)
        sgd_step(p, np.ones(1), 1.0)  # v = 0.9*1 + 1 = 1.9; w = -1 - 1.9
        assert p.value[0] == pytest.approx(-2.9)

    def test_grad_clip_rescales_to_unit_norm(self):
        p = Parameter.of(np.zeros(4))
        # norm 10; on the first step the momentum starts at zero
        sgd_step(p, np.full(4, 5.0), 1.0)
        assert np.linalg.norm(p.value) == pytest.approx(1.0, rel=1e-6)

    def test_small_gradients_not_rescaled(self):
        p = Parameter.of(np.zeros(4))
        sgd_step(p, np.full(4, 0.1), 1.0)
        assert p.value == pytest.approx(-0.1 * np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises_before_any_update(self, bad):
        p = Parameter.of(np.zeros(2))
        with pytest.raises(FloatingPointError, match="not finite"):
            sgd_step(p, np.array([0.1, bad]), 1.0)
        assert p.value.tolist() == [0.0, 0.0] and p.momentum is None

    @pytest.mark.parametrize("arch", ARCHS)
    def test_streamed_step_matches_two_phase(self, arch):
        """``backward`` hands each gradient to ``step`` before it has run the
        earlier layers.  Updating at once must give bit-identical values and
        momenta to updating after ``backward`` returns, which fails if any
        backward entry reads a parameter after that parameter's update."""
        g = toy_net(arch)
        data = toy_dataset(4)
        x = Tensor5D(np.concatenate([clip.data for clip, _ in data], axis=0))
        streamed, phased = init_params(g, 2), init_params(g, 2)
        calibrate_init(g, streamed, x)
        calibrate_init(g, phased, x)
        for i in range(3):
            xb = Tensor5D(x.data[i : i + 2])
            yb = np.array([label for _, label in data[i : i + 2]])
            a = backward(g, streamed, forward(g, streamed, xb), yb, partial(sgd_step, lr=0.01))
            step, grads = collecting_step()
            b = backward(g, phased, forward(g, phased, xb), yb, step)
            assert a == b
            tensors = parameter_tensors(phased)
            assert len(grads) == len(tensors)  # the loss reaches every tensor
            for par in tensors:
                sgd_step(par, grads[id(par)], 0.01)
        for s, p in zip(parameter_tensors(streamed), parameter_tensors(phased)):
            assert np.array_equal(s.value, p.value)
            assert np.array_equal(s.momentum, p.momentum)

    def test_step_peak_memory_is_parameter_bound(self):
        """One i3d step at width 1 holds 12.29M parameters.  A float32 value,
        a float64 momentum and one float64 gradient set are 20 bytes each;
        gradients streamed into the update stay well under that, where a
        whole-network gradient and momentum allocated up front do not."""
        g = build_network("i3d", Shape5(2, 3, 8, 32, 32), num_classes=2, width_mult=1.0)
        rng = np.random.default_rng(0)
        x = Tensor5D(rng.standard_normal(tuple(g.input_shape)).astype(np.float32))
        tracemalloc.start()
        try:
            p = init_params(g, 0)
            backward(g, p, forward(g, p, x), np.array([0, 1]), partial(sgd_step, lr=0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tensors = parameter_tensors(p)
        count = sum(t.value.size for t in tensors)
        assert count == 12_289_312
        assert all(t.momentum is not None for t in tensors)
        assert peak < 20 * count

    def test_init_and_load_allocate_no_momentum(self, tmp_path):
        g = toy_net()
        p = init_params(g, 0)
        save_weights(tmp_path / "w.lw3d", g, p)
        for q in (p, load_weights(tmp_path / "w.lw3d", g)):
            assert all(t.momentum is None for t in parameter_tensors(q))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="batch size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="epochs must be at least 1, got 0"):
            TrainConfig(epochs=0)
        for lr in (float("nan"), float("inf"), -1.0):
            message = f"^learning rate must be positive and finite, got {lr}$"
            with pytest.raises(ValueError, match=message):
                TrainConfig(learning_rate=lr)
        for patience in (0, -3):
            message = f"^plateau patience must be at least 1, got {patience}$"
            with pytest.raises(ValueError, match=message):
                TrainConfig(plateau_patience=patience)
        assert TrainConfig(plateau_patience=1).plateau_patience == 1


class TestWeightFile:
    def test_round_trip(self, tmp_path):
        g = toy_net()
        p = init_params(g, 3)
        path = tmp_path / "w.bin"
        save_weights(path, g, p)
        q = load_weights(path, g)
        assert set(q.conv) == set(p.conv)
        for lid in p.conv:
            assert np.array_equal(q.conv[lid].value, p.conv[lid].value)
        for lid in p.bn:
            assert np.array_equal(q.bn[lid].gamma.value, p.bn[lid].gamma.value)
            assert np.array_equal(q.bn[lid].var, p.bn[lid].var)

    def test_truncated_file_names_layer(self, tmp_path):
        g = toy_net()
        path = tmp_path / "w.bin"
        save_weights(path, g, init_params(g, 0))
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError, match="conv1"):
            load_weights(path, g)

    def test_wrong_architecture_rejected(self, tmp_path):
        sst = build_network("sst", TOY_SHAPE, num_classes=2, width_mult=0.125)
        path = tmp_path / "w.bin"
        save_weights(path, sst, init_params(sst, 0))
        with pytest.raises(ValueError):
            load_weights(path, toy_net("i3d"))

    def test_trailing_records_rejected(self, tmp_path):
        g = toy_net()
        path = tmp_path / "w.bin"
        save_weights(path, g, init_params(g, 0))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_weights(path, g)

    def test_version_9_record_rejected(self, tmp_path):
        g = toy_net()
        path = tmp_path / "w.bin"
        save_weights(path, g, init_params(g, 0))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version") as e:
            load_weights(path, g)
        assert str(path) in str(e.value) and "conv1" in str(e.value)

    @pytest.mark.parametrize(
        "kind,field,value,message",
        [
            ("conv", "value", np.nan, "conv record holds a non-finite value"),
            ("conv", "value", -np.inf, "conv record holds a non-finite value"),
            ("bn", "var", np.nan, "bn record holds a non-finite value"),
            ("bn", "mean", np.inf, "bn record holds a non-finite value"),
            ("bn", "var", -0.5, "bn variance row holds a negative value"),
        ],
    )
    def test_bad_value_rejected_naming_the_layer(self, tmp_path, kind, field, value, message):
        """Weight files come from outside the program: a NaN variance would
        otherwise score every clip nan,nan, and a negative one fails later
        in batch norm without naming the file or the layer."""
        g = toy_net()
        p = init_params(g, 0)
        layer = next(layer for layer in parameterized_layers(g) if layer.kind == kind)
        target = p.conv[layer.id] if kind == "conv" else p.bn[layer.id]
        getattr(target, field).flat[1] = value
        path = tmp_path / "w.bin"
        save_weights(path, g, p)
        with pytest.raises(ValueError) as e:
            load_weights(path, g)
        assert str(e.value) == f"{path}: layer {layer.id!r}: {message}"

    def test_oversized_claim_rejected_before_allocating(self, tmp_path):
        g = toy_net()
        path = tmp_path / "w.bin"
        path.write_bytes(
            tensor.MAGIC + b"\x01" + struct.pack("<5Q", 2**17, 2**17, 1, 1, 1)
        )
        with pytest.raises(ValueError, match="truncated payload") as e:
            load_weights(path, g)
        assert str(path) in str(e.value) and "conv1" in str(e.value)


def _tiny_weight_bytes() -> bytes:
    """The tiny graph's seed-0 weight file, written by hand from the format."""
    g = tiny_graph()
    buf = io.BytesIO()
    params = init_params(g, 0)
    for layer in parameterized_layers(g):
        if layer.kind == "conv":
            value = params.conv[layer.id].value
        else:
            s = params.bn[layer.id]
            value = np.stack([s.gamma.value, s.beta.value, s.mean, s.var])
            value = value.reshape(4, layer.params, 1, 1, 1)
        buf.write(tensor.MAGIC + b"\x01" + struct.pack("<5Q", *value.shape))
        buf.write(value.astype("<f4").tobytes())
    return buf.getvalue()


TINY_WEIGHTS = _tiny_weight_bytes()


def test_weight_file_is_concatenated_tensor_records(tmp_path):
    g = tiny_graph()
    path = tmp_path / "w.bin"
    save_weights(path, g, init_params(g, 0))
    assert path.read_bytes() == TINY_WEIGHTS


# arbitrary bytes, plus a valid weight file cut short, extended, or with one
# byte overwritten, so that every check in the record reader is reached
weight_bytes = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda cut, pos, byte, tail: (
            TINY_WEIGHTS[:pos] + bytes([byte]) + TINY_WEIGHTS[pos + 1 :]
        )[:cut] + tail,
        st.integers(min_value=0, max_value=len(TINY_WEIGHTS)),
        st.integers(min_value=0, max_value=len(TINY_WEIGHTS) - 1),
        st.integers(min_value=0, max_value=255),
        st.binary(max_size=8),
    ),
)


@settings(max_examples=200, deadline=None)
@given(raw=weight_bytes)
def test_load_weights_loads_or_raises_value_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "w.bin"
    path.write_bytes(raw)
    try:
        load_weights(path, tiny_graph())
    except ValueError as e:
        assert str(path) in str(e) and "\n" not in str(e)


class TestCalibration:
    def test_activations_reach_usable_scale(self):
        g = toy_net()
        params = init_params(g, 0)
        rng = np.random.default_rng(0)
        probe = Tensor5D(rng.standard_normal((4, 3, 8, 32, 32)).astype(np.float32))
        before = forward(g, params, probe)
        logits_ref = g.layer(g.output_id).inputs[0]
        std_before = float(autodiff._resolve(before, g, logits_ref).data.std())
        calibrate_init(g, params, probe)
        after = forward(g, params, probe)
        std_after = float(autodiff._resolve(after, g, logits_ref).data.std())
        assert std_before < 1e-2  # depth collapses untreated activations
        assert 1e-2 < std_after < 1e2

    def test_statistics_frozen_after_calibration(self):
        g = toy_net()
        params = init_params(g, 0)
        rng = np.random.default_rng(1)
        probe = Tensor5D(rng.standard_normal((2, 3, 8, 32, 32)).astype(np.float32))
        calibrate_init(g, params, probe)
        snap = {lid: s.mean.copy() for lid, s in params.bn.items()}
        other = Tensor5D(rng.standard_normal((2, 3, 8, 32, 32)).astype(np.float32))
        forward(g, params, other)
        for lid, s in params.bn.items():
            assert np.array_equal(s.mean, snap[lid])

    # sha256 of calibrate_init's conv values, bn means and bn variances in
    # parameterized_layers order, on a 16-clip probe built as train_toy builds it
    CALIBRATION_PINS = {
        "i3d": "4e678e97b9701032",
        "ist": "10ec559230411337",
        "sst": "14f08911e5781798",
        "gsst": "2f0cb16cd09caac8",
    }

    @pytest.mark.parametrize("arch", ARCHS)
    def test_calibration_is_pinned(self, arch):
        g = toy_net(arch)
        p = init_params(g, 0)
        data = toy_dataset(16)
        take = np.linspace(0, len(data) - 1, min(len(data), 16)).astype(int)
        calibrate_init(g, p, Tensor5D(np.concatenate([data[i][0].data for i in take], axis=0)))
        h = hashlib.sha256()
        for layer in parameterized_layers(g):
            if layer.kind == "conv":
                h.update(p.conv[layer.id].value.tobytes())
            else:
                h.update(p.bn[layer.id].mean.tobytes() + p.bn[layer.id].var.tobytes())
        assert h.hexdigest()[:16] == self.CALIBRATION_PINS[arch]

    def test_bn_input_copy_is_freed_before_the_bn_runs(self):
        """On one conv -> bn -> relu, calibration peaks at 5.01x the conv's
        output; holding the float64 copy of the bn input while the bn's own
        temporaries exist makes it 6.01x."""
        g = ModuleGraph([
            LayerSpec("in", "input", Shape5(1, 8, 8, 32, 32)),
            LayerSpec("c", "conv", Conv3DSpec(8, 32, (1, 1, 1)), ["in"]),
            LayerSpec("b", "bn", 32, ["c"]),
            LayerSpec("r", "relu", None, ["b"]),
            LayerSpec("head", "conv", Conv3DSpec(32, 2, (1, 1, 1)), ["r"]),
            LayerSpec("out", "softmax", None, ["head"]),
        ], "i3d", num_classes=2)
        p = init_params(g, 0)
        x = Tensor5D(np.random.default_rng(0).standard_normal(g.input_shape).astype(np.float32))
        tracemalloc.start()
        try:
            calibrate_init(g, p, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * g.shapes["c"].size * 4


class TestForwardHook:
    def test_pass_through_hook_sees_each_layer_once_and_changes_nothing(self):
        g = toy_net()
        p = init_params(g, 0)
        x = Tensor5D(np.random.default_rng(2).standard_normal(TOY_SHAPE).astype(np.float32))
        seen = []

        def around(layer, xs, run):
            seen.append(layer.id)
            return run()

        plain = forward(g, p, x)
        hooked = forward(g, p, x, around=around)
        assert seen == [layer.id for layer in g.layers if layer.kind != "input"]
        assert list(hooked) == list(plain)
        for lid, y in plain.items():
            assert hooked[lid].data.tobytes() == y.data.tobytes()

    def test_calibration_is_one_hooked_forward(self, monkeypatch):
        real = autodiff.forward
        hooks = []

        def spy(g, p, x, around=None, keep=None):
            hooks.append((around, keep))
            return real(g, p, x, around, keep)

        monkeypatch.setattr(autodiff, "forward", spy)
        calls = count_calls(monkeypatch, [(ops, "conv3d_lowered"), (autodiff, "_conv_bn_relu")])
        g = toy_net()
        calibrate_init(g, init_params(g, 0), Tensor5D(np.ones(TOY_SHAPE, np.float32)))
        assert len(hooks) == 1 and hooks[0][0] is not None
        assert hooks[0][1] is not None  # a liveness forward
        # the hook unfolds each chain itself, and the tracer's MAC check
        # counts every conv calibration runs
        assert [kw["tag"] for _, kw in calls["conv3d_lowered"]] == [
            layer.id for layer in g.layers if layer.kind == "conv"
        ]
        assert calls["_conv_bn_relu"] == []

    # on one-clip calibrations the fold moves these outputs by up to 0.298
    # (ist), so a hook that ran the unfolded forward would show here
    @pytest.mark.parametrize("arch", ARCHS)
    def test_pass_through_hook_leaves_the_inference_forward_unchanged(self, arch):
        g = toy_net(arch)
        p = init_params(g, 0)
        x = Tensor5D(np.random.default_rng(2).standard_normal(TOY_SHAPE).astype(np.float32))
        calibrate_init(g, p, x)
        plain = forward(g, p, x, keep={g.output_id})
        hooked = forward(g, p, x, around=lambda layer, xs, run: run(), keep={g.output_id})
        assert hooked[g.output_id].data.tobytes() == plain[g.output_id].data.tobytes()

    @pytest.mark.parametrize("arch", ARCHS)
    def test_hooked_inference_runs_the_folded_forward(self, arch, monkeypatch):
        g = toy_net(arch)
        calls = count_calls(
            monkeypatch, [(ops, "conv3d_lowered"), (ops, "batchnorm_infer"), (tensor, "relu")]
        )
        forward(g, init_params(g, 0), Tensor5D(np.ones(TOY_SHAPE, np.float32)),
                around=lambda layer, xs, run: run(), keep={g.output_id})
        assert calls["batchnorm_infer"] == [] and calls["relu"] == []
        assert [kw["tag"] for _, kw in calls["conv3d_lowered"]] == [
            layer.id for layer in g.layers if layer.kind == "conv"
        ]

    def test_a_kept_bn_shows_its_chain_as_three_steps(self):
        g = toy_net()
        conv, (bn, relu) = next(iter(g.chains.items()))
        p, x = init_params(g, 0), Tensor5D(np.ones(TOY_SHAPE, np.float32))

        def steps(keep):
            seen = []

            def around(layer, xs, run):
                seen.append(layer.id)
                return run()

            forward(g, p, x, around=around, keep=keep)
            return seen

        folded, kept = steps({g.output_id}), steps({bn, g.output_id})
        i = kept.index(conv)
        assert kept[i : i + 3] == [conv, bn, relu]
        assert kept[: i + 1] + kept[i + 3 :] == folded


def fan_out_graph():
    """r1 fans out to a shuffle and to the concat; the split's ports are read
    by two layers after its input's last reader has run."""
    layers = [
        LayerSpec("in", "input", Shape5(1, 2, 2, 4, 4)),
        LayerSpec("c1", "conv", Conv3DSpec(2, 4, (1, 1, 1)), ["in"]),
        LayerSpec("r1", "relu", None, ["c1"]),
        LayerSpec("sh", "shuffle", 2, ["r1"]),
        LayerSpec("sp", "split", SplitSpec((3, 1)), ["sh"]),
        LayerSpec("a", "relu", None, ["sp:0"]),
        LayerSpec("b", "relu", None, ["sp:1"]),
        LayerSpec("cat", "concat", None, ["a", "b", "r1"]),
        LayerSpec("out", "softmax", None, ["cat"]),
    ]
    return ModuleGraph(layers, "i3d", num_classes=8)


class TestLiveness:
    """``forward(..., keep=...)`` drops each activation after its last reader."""

    @pytest.mark.parametrize("arch", ARCHS)
    def test_keep_output_returns_only_the_same_output(self, arch):
        g = toy_net(arch)
        p = init_params(g, 0)
        x = Tensor5D(np.random.default_rng(3).standard_normal(TOY_SHAPE).astype(np.float32))
        kept = forward(g, p, x, keep={g.output_id})
        assert list(kept) == [g.output_id]
        assert kept[g.output_id].data.tobytes() == forward(g, p, x)[g.output_id].data.tobytes()

    # executed steps of a toy inference forward: one per folded chain and one
    # per other non-input layer
    STEPS = {"i3d": 82, "ist": 102, "sst": 120, "gsst": 120}

    @pytest.mark.parametrize("arch", ARCHS)
    def test_hook_sees_each_layer_once(self, arch):
        g = toy_net(arch)
        seen = []

        def around(layer, xs, run):
            seen.append(layer.id)
            return run()

        forward(g, init_params(g, 0), Tensor5D(np.ones(TOY_SHAPE, np.float32)),
                around=around, keep={g.output_id})
        folded = {lid for ids in g.chains.values() for lid in ids}  # run by their conv
        assert seen == [l.id for l in g.layers if l.kind != "input" and l.id not in folded]
        assert len(seen) == self.STEPS[arch]

    def test_fan_out_and_split_ports_free_each_entry_at_its_last_reader(self, monkeypatch):
        g = fan_out_graph()
        assert {lid: sorted(ids) for lid, ids in g.frees.items() if ids} == {
            "c1": ["in"], "r1": ["c1"], "sp": ["sh"], "b": ["sp"], "cat": ["a", "b", "r1"],
            "out": ["cat"],
        }
        p = init_params(g, 0)
        x = Tensor5D(np.random.default_rng(4).standard_normal(g.input_shape).astype(np.float32))
        full = forward(g, p, x)
        real = autodiff._resolve
        live = []

        def spy(acts, g, ref):
            live.append((ref, sorted(acts)))
            return real(acts, g, ref)

        monkeypatch.setattr(autodiff, "_resolve", spy)
        kept = forward(g, p, x, keep={"out"})
        assert live == [
            ("in", ["in"]),
            ("c1", ["c1"]),
            ("r1", ["r1"]),
            ("sh", ["r1", "sh"]),
            ("sp:0", ["r1", "sp"]),
            ("sp:1", ["a", "r1", "sp"]),
            ("a", ["a", "b", "r1"]),
            ("b", ["a", "b", "r1"]),
            ("r1", ["a", "b", "r1"]),
            ("cat", ["cat"]),
        ]
        assert list(kept) == ["out"]
        assert kept["out"].data.tobytes() == full["out"].data.tobytes()

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before CPython 3.11 the caller's stack holds a call's temporary "
        "arguments until the call returns, so the input outlives its last reader",
    )
    def test_a_temporary_input_is_freed_after_its_last_reader(self):
        """The forward holds its input only in ``acts``, so a ``keep``
        forward given a temporary frees it after the stem, its one reader."""
        g = toy_net()
        refs, alive = [], []

        def temporary():
            x = Tensor5D(np.ones(TOY_SHAPE, np.float32))
            refs.append(weakref.ref(x.data))
            return x

        def around(layer, xs, run):
            alive.append(refs[0]() is not None)
            return run()

        forward(g, init_params(g, 0), temporary(), around=around, keep={g.output_id})
        assert alive[:2] == [True, False]

    def test_keep_holds_the_listed_ids_and_an_unread_layer_is_dropped(self):
        g = fan_out_graph()
        dead = ModuleGraph(
            [*g.layers[:-1], LayerSpec("dead", "relu", None, ["in"]), g.layers[-1]],
            "i3d", num_classes=8,
        )
        assert dead.frees["dead"] == ["in", "dead"]
        x = Tensor5D(np.ones(g.input_shape, np.float32))
        p = init_params(g, 0)
        assert list(forward(dead, p, x, keep={"sp", "a"})) == ["sp", "a", "out"]


class RecordingActs(dict):
    """An ``acts`` table that logs each lookup and each deletion, in order."""

    def __init__(self, acts, log):
        super().__init__(acts)
        self.log = log

    def __getitem__(self, key):
        self.log.append(("read", key))
        return super().__getitem__(key)

    def __delitem__(self, key):
        self.log.append(("free", key))
        super().__delitem__(key)


class TestTrainingLiveness:
    """A training step keeps only what some backward reads
    (``ModuleGraph.train_keep``), and ``backward`` pops each activation after
    its last backward reader (``ModuleGraph.back_frees``)."""

    @staticmethod
    def calibrated(arch):
        g = toy_net(arch)
        data = toy_dataset(2)
        x = Tensor5D(np.concatenate([clip.data for clip, _ in data]))
        p = init_params(g, 0)
        calibrate_init(g, p, x)
        return g, p, x, np.array([label for _, label in data])

    @staticmethod
    def backward_reads(g, layer):
        """What a layer's backward reads: conv, bn and pool their inputs, a
        relu its output, the loss (at the softmax) the logits."""
        if layer.kind == "relu":
            return {layer.id}
        if layer.kind in ("conv", "bn", "pool", "softmax"):
            return {g.ports[ref][0] for ref in layer.inputs}
        return set()

    def test_relu_backward_takes_the_same_mask_from_its_output(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        values = np.array(
            [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 3 * tiny,
             np.finfo(np.float32).tiny, -1.5, 2.5, np.finfo(np.float32).max], np.float32,
        )
        x = Tensor5D(np.resize(values, (2, 3, 2, 2, 2)))
        gout = np.random.default_rng(0).standard_normal(x.shape)
        got = autodiff.relu_backward(tensor.relu(x), gout)
        assert got.tobytes() == autodiff.relu_backward(x, gout).tobytes()

    def test_fan_out_graph_tables_by_hand(self):
        g = fan_out_graph()
        # c1's output is read only by r1's forward; sh, sp and cat read
        # only channel counts
        assert g.train_keep == {"in", "r1", "a", "b", "cat", "out"}
        assert {lid: ids for lid, ids in g.back_frees.items() if ids} == {
            "c1": ["in"], "r1": ["r1"], "a": ["a"], "b": ["b"], "out": ["cat"],
        }

    @pytest.mark.parametrize("arch", ARCHS)
    def test_a_training_forward_holds_no_chain_bn_output(self, arch):
        g, p, x, _ = self.calibrated(arch)
        acts = forward(g, p, x, keep=g.train_keep)
        assert set(acts) == g.train_keep
        assert not {bn for bn, _ in g.chains.values()} & set(acts)
        assert set(g.chains) <= set(acts)  # every conv is kept, so none folds

    def test_train_toy_keeps_the_compiled_set(self, monkeypatch):
        g = toy_net()
        keeps = []
        real = autodiff.forward

        def spy(g, p, x, around=None, keep=None):
            keeps.append(keep)
            return real(g, p, x, around=around, keep=keep)

        monkeypatch.setattr(autodiff, "forward", spy)
        train_toy(g, toy_dataset(4), TrainConfig(learning_rate=0.01, epochs=1, batch_size=2))
        assert keeps[1:] == [g.train_keep, g.train_keep]  # after calibration's

    @pytest.mark.parametrize("arch", ARCHS)
    def test_each_backward_reads_and_frees_what_the_tables_say(self, arch, monkeypatch):
        g, p, x, labels = self.calibrated(arch)
        log = []

        def logged(back):
            def spy(layer, *args):
                log.append(("back", layer.id))
                return back(layer, *args)
            return spy

        for kind, (fwd, back) in autodiff.KINDS.items():
            if back is not None:
                monkeypatch.setitem(autodiff.KINDS, kind, (fwd, logged(back)))
        monkeypatch.setattr(autodiff, "_conv_weight_backward",
                            logged(autodiff._conv_weight_backward))
        real_xent = autodiff.site_xent

        def xent(*args):  # the loss is the softmax layer's backward
            log.append(("back", g.output_id))
            return real_xent(*args)

        monkeypatch.setattr(autodiff, "site_xent", xent)
        acts = RecordingActs(forward(g, p, x, keep=g.train_keep), log)
        backward(g, p, acts, labels, collecting_step()[0])
        # a layer's reads come just before its backward, its frees just after
        reads, frees, pending, owner = {}, {lid: [] for lid in g.back_frees}, [], None
        for event, key in log:
            if event == "read":
                pending.append(key)
            elif event == "back":
                reads[key], pending, owner = set(pending), [], key
            else:
                frees[owner].append(key)
        layers = [layer for layer in g.layers if layer.kind != "input"]
        assert reads == {layer.id: self.backward_reads(g, layer) for layer in layers}
        assert set().union(*reads.values()) == g.train_keep - {g.output_id}
        assert frees == g.back_frees
        assert all(set(frees[lid]) <= reads[lid] for lid in reads)
        assert set(acts) == {g.output_id}

    @pytest.mark.parametrize("arch", ARCHS)
    def test_keep_none_forward_gives_the_same_gradients(self, arch):
        """The unfolded forward the benchmark oracle runs keeps everything;
        ``backward`` reads the same activations from it."""
        g, p, x, labels = self.calibrated(arch)
        runs = []
        for keep in (None, g.train_keep):
            step, grads = collecting_step()
            loss = backward(g, p, forward(g, p, x, keep=keep), labels, step)
            runs.append((loss, [(k, v.tobytes()) for k, v in grads.items()]))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == len(parameter_tensors(p))

    @pytest.mark.parametrize("arch", ARCHS)
    def test_a_training_step_peaks_below_a_keep_everything_step(self, arch):
        """A keep-everything step holds every chain's bn output through the
        backward; a training step never holds them all at once."""
        g, p, x, labels = self.calibrated(arch)
        bn_bytes = sum(g.shapes[bn].size * x.n * 4 for bn, _ in g.chains.values())
        peaks = []
        for keep in (None, g.train_keep):
            tracemalloc.start()
            try:
                backward(g, p, forward(g, p, x, keep=keep), labels, lambda par, grad: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] - peaks[1] >= bn_bytes


def count_calls(monkeypatch, targets):
    """Spy on each (module, name): a list of every call's args and kwargs."""
    calls = {name: [] for _, name in targets}
    for mod, name in targets:

        def spy(*args, _real=getattr(mod, name), _name=name, **kwargs):
            calls[_name].append((args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    return calls


class TestFoldedInference:
    """A forward that keeps only the output folds each conv -> bn -> relu
    into one conv; training and calibration run every layer."""

    # fused against unfused calibrated scores on these inputs measured at
    # most 5.1e-5 (ist; i3d 1.7e-6, sst 3.6e-5, gsst 3.0e-5).  The two paths
    # round float32 activations differently by about 1 ulp, and the toy
    # networks amplify that about 1e3-fold through depth.
    SCORE_TOL = 1e-4

    @staticmethod
    def calibrated(arch):
        g = toy_net(arch)
        p = init_params(g, 0)
        clips = Tensor5D(np.concatenate([x.data for x, _ in toy_dataset(8)]))
        calibrate_init(g, p, clips)
        return g, p, clips

    @pytest.mark.parametrize("arch", ARCHS)
    def test_fused_scores_match_unfused(self, arch):
        g, p, clips = self.calibrated(arch)
        fused = predict_scores(g, forward(g, p, clips, keep={g.output_id}))
        plain = predict_scores(g, forward(g, p, clips))
        assert 0.01 < plain.min() and plain.max() < 0.99  # not saturated
        assert np.abs(fused - plain).max() <= self.SCORE_TOL

    @pytest.mark.parametrize("arch", ARCHS)
    def test_fused_forward_runs_one_conv_per_conv_and_no_bn_or_relu(self, arch, monkeypatch):
        g, p, clips = self.calibrated(arch)
        assert len(g.chains) == sum(layer.kind == "conv" for layer in g.layers) - 1
        calls = count_calls(
            monkeypatch, [(ops, "conv3d_lowered"), (ops, "batchnorm_infer"), (tensor, "relu")]
        )
        forward(g, p, clips, keep={g.output_id})
        assert calls["batchnorm_infer"] == [] and calls["relu"] == []
        assert [kw["tag"] for _, kw in calls["conv3d_lowered"]] == [
            layer.id for layer in g.layers if layer.kind == "conv"
        ]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_training_and_calibration_run_every_bn(self, arch, monkeypatch):
        g = toy_net(arch)
        p = init_params(g, 0)
        x = Tensor5D(np.ones(TOY_SHAPE, np.float32))
        bns = sum(layer.kind == "bn" for layer in g.layers)
        calls = count_calls(monkeypatch, [(ops, "batchnorm_infer")])
        calibrate_init(g, p, x)
        assert len(calls["batchnorm_infer"]) == bns
        forward(g, p, x)
        assert len(calls["batchnorm_infer"]) == 2 * bns

    def test_a_kept_conv_or_bn_stays_unfused(self, monkeypatch):
        g, p, clips = self.calibrated("gsst")
        conv, (bn, relu) = next(iter(g.chains.items()))
        plain = forward(g, p, clips)
        calls = count_calls(monkeypatch, [(ops, "batchnorm_infer"), (tensor, "relu")])
        for kept in (conv, bn):
            acts = forward(g, p, clips, keep={kept, g.output_id})
            assert acts[kept].data.tobytes() == plain[kept].data.tobytes()
        assert len(calls["batchnorm_infer"]) == len(calls["relu"]) == 2
        # a kept relu is the fused chain's output
        acts = forward(g, p, clips, keep={relu, g.output_id})
        assert len(calls["relu"]) == 2
        np.testing.assert_allclose(acts[relu].data, plain[relu].data, rtol=1e-6, atol=1e-6)


class TestCompiledGraph:
    """``ModuleGraph`` resolves every port and infers every shape once, when
    it is built; execution and analysis read those tables."""

    @pytest.mark.parametrize("arch", ARCHS)
    def test_activations_have_the_compiled_shapes(self, arch):
        g = toy_net(arch)
        x = Tensor5D(np.ones(TOY_SHAPE._replace(n=2), np.float32))
        acts = forward(g, init_params(g, 0), x)
        assert {lid: y.shape for lid, y in acts.items()} == {
            lid: s._replace(n=2) for lid, s in g.shapes.items()
        }
        split_ports = [ref for ref in g.ports if ":" in ref]
        assert bool(split_ports) == (arch in ("sst", "gsst"))
        for ref in split_ports:
            base, k = ref.split(":")
            width = g.layer(base).params.sizes[int(k)]
            assert autodiff._resolve(acts, g, ref).shape == acts[base].shape._replace(c=width)

    def test_no_reference_is_parsed_after_construction(self, monkeypatch):
        g = toy_net()
        parsed = []
        real = ModuleGraph.port

        def spy(self, ref):
            parsed.append(ref)
            return real(self, ref)

        monkeypatch.setattr(ModuleGraph, "port", spy)
        p = init_params(g, 0)
        acts = forward(g, p, Tensor5D(np.ones(TOY_SHAPE, np.float32)))
        backward(g, p, acts, np.array([1]), collecting_step()[0])
        analysis.analyze(g)
        assert parsed == []


class TestTraining:
    def test_plateau_decays_learning_rate(self):
        g = tiny_graph()
        data = [
            (Tensor5D(np.zeros((2, 2, 4, 6, 6), dtype=np.float32)), 0),
        ]
        # a step of 1e-20 cannot move a float32 weight, so every epoch after
        # the first is stale
        cfg = TrainConfig(learning_rate=1e-20, epochs=5, batch_size=1, plateau_patience=2)
        history, _ = train_toy(g, data, cfg, seed=0)
        lrs = [h["lr"] for h in history]
        # epoch 0 always beats the infinite starting loss; decay fires after
        # every subsequent pair of stale epochs
        assert lrs == [1e-20, 1e-20, 1e-20, 1e-20 / 10, 1e-20 / 10]

    def test_rejects_bad_labels_and_empty_data(self):
        g = toy_net(classes=2)
        with pytest.raises(ValueError, match="empty"):
            train_toy(g, [], TrainConfig())
        bad = [(Tensor5D(np.zeros(tuple(TOY_SHAPE), dtype=np.float32)), 2)]
        with pytest.raises(ValueError, match="label"):
            train_toy(g, bad, TrainConfig())

    def test_training_is_seed_reproducible(self):
        g = toy_net()
        data = toy_dataset(4)
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=2)
        h1, p1 = train_toy(g, data, cfg, seed=11)
        h2, p2 = train_toy(g, data, cfg, seed=11)
        assert h1 == h2
        for lid in p1.conv:
            assert np.array_equal(p1.conv[lid].value, p2.conv[lid].value)

    # sha256 of a short run's history and saved weight bytes: batches of 3
    # and 1 clips, two epochs, each arch at toy width
    RUN_PINS = {
        "i3d": "bc6319b7dfc01ad5",
        "ist": "a29819d2a1212e95",
        "sst": "638a3af40e67f024",
        "gsst": "d582f2aa0d6f4a0c",
    }

    @pytest.mark.parametrize("arch", ARCHS)
    def test_short_run_is_pinned(self, arch, tmp_path):
        g = toy_net(arch)
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=3)
        history, params = train_toy(g, toy_dataset(4), cfg, seed=5)
        save_weights(tmp_path / "w.lw3d", g, params)
        h = hashlib.sha256(repr(history).encode() + (tmp_path / "w.lw3d").read_bytes())
        assert h.hexdigest()[:16] == self.RUN_PINS[arch]

    @pytest.mark.parametrize("arch", ["i3d", "ist", "sst", "gsst"])
    def test_two_clip_overfit(self, arch):
        g = toy_net(arch)
        data = toy_dataset(2)
        cfg = TrainConfig(
            learning_rate=3e-4, epochs=30, batch_size=2, plateau_patience=1000
        )
        history, _ = train_toy(g, data, cfg, seed=0)
        assert history[-1]["loss"] < 1e-2
        assert history[-1]["accuracy"] == 1.0
