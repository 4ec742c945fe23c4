import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lw3d import autodiff, ops, tensor
from lw3d.ops import BN_EPS, Conv3DSpec, MacCounter, PoolSpec
from lw3d.tensor import Shape5, Tensor5D


def conv3d_bruteforce(x: Tensor5D, spec: Conv3DSpec, w: np.ndarray) -> np.ndarray:
    """Independent six-nested-loop reference with 64-bit accumulation.

    Deliberately written from the definition alone so it can arbitrate
    between the two production implementations.
    """
    out = spec.output_shape(x.shape)
    st, sh, sw = spec.stride
    pt, ph, pw = spec.padding
    cg = spec.in_channels // spec.groups
    og = spec.out_channels // spec.groups
    xd = x.data.astype(np.float64)
    wd = np.asarray(w, dtype=np.float64)
    y = np.zeros(tuple(out))
    for n in range(out.n):
        for o in range(out.c):
            gi = o // og
            for t in range(out.t):
                for h in range(out.h):
                    for ww in range(out.w):
                        acc = 0.0
                        for k in range(cg):
                            c = gi * cg + k
                            for dt in range(spec.kernel[0]):
                                it = t * st + dt - pt
                                if not 0 <= it < x.t:
                                    continue
                                for dh in range(spec.kernel[1]):
                                    ih = h * sh + dh - ph
                                    if not 0 <= ih < x.h:
                                        continue
                                    for dw in range(spec.kernel[2]):
                                        iw = ww * sw + dw - pw
                                        if not 0 <= iw < x.w:
                                            continue
                                        acc += (
                                            xd[n, c, it, ih, iw]
                                            * wd[o, k, dt, dh, dw]
                                        )
                        y[n, o, t, h, ww] = acc
    return y


def traced_peak(run):
    """``run()``'s result and the peak bytes ``tracemalloc`` saw it hold."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def random_spec(rng, groups=None):
    g = groups if groups is not None else int(rng.choice([1, 1, 2, 4]))
    cin = g * int(rng.integers(1, 4))
    cout = g * int(rng.integers(1, 4))
    kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
    stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
    padding = tuple(int(rng.integers(0, 2)) for _ in range(3))
    return Conv3DSpec(cin, cout, kernel, stride, padding, g)


def random_input(rng, spec, min_extent=4, max_extent=6):
    dims = tuple(int(rng.integers(min_extent, max_extent + 1)) for _ in range(3))
    n = int(rng.integers(1, 3))
    return Tensor5D(
        rng.standard_normal((n, spec.in_channels, *dims)).astype(np.float32)
    )


class TestConv3DSpec:
    def test_param_count_formula(self):
        spec = Conv3DSpec(96, 208, (3, 3, 3))
        assert spec.param_count == 208 * 96 * 27
        grouped = Conv3DSpec(96, 208, (3, 3, 3), groups=2)
        assert grouped.param_count == spec.param_count // 2

    def test_rejects_indivisible_groups(self):
        with pytest.raises(ValueError, match="groups"):
            Conv3DSpec(3, 4, (1, 1, 1), groups=2)
        with pytest.raises(ValueError, match="groups"):
            Conv3DSpec(4, 3, (1, 1, 1), groups=2)

    def test_rejects_zero_channels_and_groups(self):
        for cin, cout, groups in ((0, 4, 1), (4, 0, 1), (4, 4, 0)):
            with pytest.raises(ValueError, match="^channel and group counts must be positive$"):
                Conv3DSpec(cin, cout, (1, 1, 1), groups=groups)

    def test_rejects_zero_kernel_and_stride(self):
        for make in (
            lambda: Conv3DSpec(2, 2, (0, 1, 1)),
            lambda: Conv3DSpec(2, 2, (1, 1, 1), (1, 0, 1)),
            lambda: PoolSpec("max", (1, 1, 0)),
        ):
            message = "^kernel and stride components must be positive$"
            with pytest.raises(ValueError, match=message):
                make()

    def test_output_shape_floor_formula(self):
        spec = Conv3DSpec(3, 8, (7, 7, 7), (2, 2, 2), (3, 3, 3))
        assert spec.output_shape(Shape5(1, 3, 32, 224, 224)) == Shape5(
            1, 8, 16, 112, 112
        )

    def test_output_shape_errors(self):
        spec = Conv3DSpec(3, 8, (5, 5, 5))
        with pytest.raises(ValueError, match="channels"):
            spec.output_shape(Shape5(1, 4, 8, 8, 8))
        with pytest.raises(ValueError, match="extent"):
            spec.output_shape(Shape5(1, 3, 4, 8, 8))


class TestConvImplementations:
    def test_identity_pointwise(self):
        x = Tensor5D(np.random.default_rng(0).standard_normal((1, 1, 3, 3, 3)).astype(np.float32))
        spec = Conv3DSpec(1, 1, (1, 1, 1))
        w = np.ones((1, 1, 1, 1, 1), dtype=np.float32)
        assert ops.conv3d_direct(x, spec, w) == x
        assert ops.conv3d_lowered(x, spec, w) == x

    def test_all_ones_sum(self):
        x = Tensor5D(np.ones((1, 1, 3, 3, 3), dtype=np.float32))
        spec = Conv3DSpec(1, 1, (3, 3, 3))
        w = np.ones((1, 1, 3, 3, 3), dtype=np.float32)
        y = ops.conv3d_direct(x, spec, w)
        assert y.shape == Shape5(1, 1, 1, 1, 1)
        assert y.data.reshape(-1)[0] == 27.0

    def test_against_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        spec = Conv3DSpec(2, 3, (3, 3, 3), (1, 1, 1), (1, 1, 1))
        x = Tensor5D(rng.standard_normal((1, 2, 4, 5, 5)).astype(np.float32))
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        ref = conv3d_bruteforce(x, spec, w)
        for impl in (ops.conv3d_direct, ops.conv3d_lowered):
            np.testing.assert_allclose(impl(x, spec, w).data, ref, atol=1e-4)

    def test_bruteforce_grouped_and_strided(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            spec = random_spec(rng)
            x = random_input(rng, spec)
            w = ops.glorot_uniform(spec, rng)
            ref = conv3d_bruteforce(x, spec, w)
            np.testing.assert_allclose(
                ops.conv3d_direct(x, spec, w).data, ref, atol=1e-4
            )
            np.testing.assert_allclose(
                ops.conv3d_lowered(x, spec, w).data, ref, atol=1e-4
            )

    def test_cross_implementation_200_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            spec = random_spec(rng)
            x = random_input(rng, spec)
            w = rng.standard_normal(spec.weight_shape).astype(np.float32)
            a = ops.conv3d_direct(x, spec, w)
            b = ops.conv3d_lowered(x, spec, w)
            np.testing.assert_allclose(a.data, b.data, atol=1e-4)

    def test_grouped_equals_blockwise_dense(self):
        # groups=g output = concatenation of g dense convs on channel blocks
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = int(rng.choice([2, 4]))
            spec = random_spec(rng, groups=g)
            x = random_input(rng, spec)
            w = rng.standard_normal(spec.weight_shape).astype(np.float32)
            y = ops.conv3d_lowered(x, spec, w)
            cg = spec.in_channels // g
            og = spec.out_channels // g
            dense = Conv3DSpec(cg, og, spec.kernel, spec.stride, spec.padding)
            parts = []
            for gi in range(g):
                xg = Tensor5D(np.ascontiguousarray(x.data[:, gi * cg : (gi + 1) * cg]))
                parts.append(ops.conv3d_direct(xg, dense, w[gi * og : (gi + 1) * og]))
            np.testing.assert_allclose(
                y.data, tensor.concat_channels(parts).data, atol=1e-4
            )

    def test_groups_one_bit_exact_between_impls_on_identity(self):
        x = Tensor5D(np.zeros((1, 3, 2, 2, 2), np.float32))
        spec = Conv3DSpec(3, 3, (1, 1, 1))
        w = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1, 1)
        assert ops.conv3d_direct(x, spec, w) == ops.conv3d_lowered(x, spec, w)

    def test_weight_shape_checked(self):
        x = Tensor5D(np.zeros((1, 2, 3, 3, 3), np.float32))
        spec = Conv3DSpec(2, 2, (3, 3, 3), padding=(1, 1, 1))
        with pytest.raises(ValueError, match="weights shape"):
            ops.conv3d_direct(x, spec, np.zeros((2, 2, 3, 3), dtype=np.float32))

    def test_mac_counter_matches_static_count(self):
        rng = np.random.default_rng(3)
        spec = Conv3DSpec(4, 6, (3, 1, 3), (1, 1, 1), (1, 0, 1), 2)
        x = random_input(rng, spec)
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        out = spec.output_shape(x.shape)
        expected = out.size * (spec.in_channels // spec.groups) * 9
        assert spec.macs(out) == expected
        counter = MacCounter()
        y = ops.conv3d_lowered(x, spec, w, counter, "layer")
        assert counter.macs == expected
        ops.conv3d_lowered(x, spec, w, counter)  # the counter keeps a running total
        assert counter.macs == 2 * expected
        # the oracle takes the tag, so it can stand in for the lowering
        np.testing.assert_allclose(ops.conv3d_direct(x, spec, w, tag="layer").data, y.data,
                                   atol=1e-4)


class TestTiledLowering:
    """The lowering works one tile of output time steps at a time, as many
    as fit ``ops.TILE_BYTES``, or one step and a run of its rows when a step
    does not fit; the tile size must not change the result."""

    @staticmethod
    def run_budgets(monkeypatch, run, out):
        """``run()`` under a 1-byte budget (one output row per tile), a
        budget that cuts each step into two runs of rows, one that cuts the
        steps into two tiles and one that fits the whole matrix: each
        budget's result by name, once every call's tile plan is checked
        (as the (steps, rows) of each tile)."""
        real = ops._time_tiles
        calls, plans = [], []

        def spy(spec, x):
            plan = real(spec, x)
            calls.append((spec, x))
            plans.append([tile.dims[:2] for tile in plan])
            return plan

        monkeypatch.setattr(ops, "_time_tiles", spy)
        monkeypatch.setattr(ops, "TILE_BYTES", 1)
        results = {"one-byte": run()}
        assert plans and all(p == [(1, 1)] * (out.t * out.h) for p in plans)
        # workspace bytes of one output row, from the first call's spec: per
        # site, a column of the whole batch's patch matrix and its product
        spec, x = calls[0]
        per_site = x.n * (spec.in_channels * math.prod(spec.kernel) + spec.out_channels)
        row = per_site * out.w * np.dtype(ops.COMPUTE).itemsize
        # the fewest tiles that fit, as even as that allows
        h2, t2 = -(-out.h // 2), -(-out.t // 2)
        for name, rows, want in (
            ("rows", out.h - 1, [(1, h2), (1, out.h - h2)] * out.t),
            ("short-last", (out.t - 1) * out.h, [(t2, out.h), (out.t - t2, out.h)]),
            ("whole", out.t * out.h, [(out.t, out.h)]),
        ):
            monkeypatch.setattr(ops, "TILE_BYTES", rows * row)
            plans.clear()
            results[name] = run()
            assert plans and all(p == want for p in plans)
        return results

    @pytest.mark.parametrize("kernel", [(1, 1, 1), (1, 3, 3), (3, 3, 3), (7, 1, 1)])
    @pytest.mark.parametrize("stride_t", [1, 2])
    # with pad 3 some tiles read only t-padding, at either end, as in gsst's
    # conv1.temporal
    @pytest.mark.parametrize("pad", [0, 1, 3])
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_tile_size_does_not_change_the_result(
        self, monkeypatch, kernel, stride_t, pad, groups, batch
    ):
        rng = np.random.default_rng(17)
        spec = Conv3DSpec(2 * groups, 3 * groups, kernel, (stride_t, 1, 1), (pad,) * 3, groups)
        x = Tensor5D(rng.standard_normal((batch, spec.in_channels, 11, 5, 6)).astype(np.float32))
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        out = spec.output_shape(x.shape)
        gout = rng.standard_normal(tuple(out))
        fwd = self.run_budgets(monkeypatch, lambda: ops.conv3d_lowered(x, spec, w).data, out)
        bwd = self.run_budgets(
            monkeypatch, lambda: autodiff.conv3d_backward(x, spec, w, gout), out
        )
        # the forward's GEMMs reduce over the same columns in every tile
        for name in ("one-byte", "rows", "short-last"):
            assert fwd[name].tobytes() == fwd["whole"].tobytes()
        # tiles split the weight gradient's reduction and reorder the input
        # gradient's sums where tiles overlap
        for name in ("one-byte", "rows", "short-last"):
            for got, ref in zip(bwd[name], bwd["whole"]):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        y = ops.conv3d_direct(x, spec, w).data
        np.testing.assert_allclose(fwd["one-byte"], y, atol=1e-4)
        # the adjoint identity ties both gradients to the direct oracle:
        # <gout, conv(x, w)> = <gx, x> = <gw, w>
        gx, gw = bwd["one-byte"]
        ref = float((gout * y).sum())
        scale = float(np.abs(gout * y).sum())
        assert abs(float((gx * x.data).sum()) - ref) <= 1e-4 * scale
        assert abs(float((gw * w).sum()) - ref) <= 1e-4 * scale

    @pytest.mark.parametrize("budget", [1, ops.TILE_BYTES])
    @pytest.mark.parametrize("groups", [2, 3])
    def test_grouped_conv_matches_one_conv_per_group(self, monkeypatch, groups, budget):
        """One patch matrix holds every clip and group of a tile, and one
        stacked matmul multiplies it.  Each group's block of the output and of
        both gradients must still be, bit for bit, what an ungrouped conv over
        that group's channels gives: one 1-row tile each at a 1-byte budget,
        one whole tile each at the default."""
        monkeypatch.setattr(ops, "TILE_BYTES", budget)
        rng = np.random.default_rng(groups)
        cg, og = 2, 3
        spec = Conv3DSpec(groups * cg, groups * og, (3, 3, 3), (2, 1, 1), (1, 1, 1), groups)
        one = Conv3DSpec(cg, og, spec.kernel, spec.stride, spec.padding)
        x = Tensor5D(rng.standard_normal((3, spec.in_channels, 7, 5, 6)).astype(np.float32))
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        gout = rng.standard_normal(tuple(spec.output_shape(x.shape)))
        y = ops.conv3d_lowered(x, spec, w).data
        gx, gw = autodiff.conv3d_backward(x, spec, w, gout)
        for g in range(groups):
            cs, os_ = slice(g * cg, (g + 1) * cg), slice(g * og, (g + 1) * og)
            xg = Tensor5D(x.data[:, cs])
            gxg, gwg = autodiff.conv3d_backward(xg, one, w[os_], gout[:, os_])
            assert y[:, os_].tobytes() == ops.conv3d_lowered(xg, one, w[os_]).data.tobytes()
            assert gx[:, cs].tobytes() == gxg.tobytes()
            assert gw[os_].tobytes() == gwg.tobytes()

    @staticmethod
    def check_workspace(monkeypatch, batch, groups, hw):
        """Peak traced memory of one forward call stays under its output and
        one budget, and of one backward call under its arrays and one budget,
        while the whole patch matrix is over four budgets."""
        monkeypatch.setattr(ops, "TILE_BYTES", 2**20)
        rng = np.random.default_rng(3)
        spec = Conv3DSpec(8, 8, (3, 3, 3), padding=(1, 1, 1), groups=groups)
        x = Tensor5D(rng.standard_normal((batch, 8, 16, hw, hw)).astype(np.float32))
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        out = spec.output_shape(x.shape)
        patch_bytes = out.size // out.c * 8 * 27 * np.dtype(ops.COMPUTE).itemsize
        assert patch_bytes >= 4 * ops.TILE_BYTES
        # whether one output step's patch matrix alone is over the budget
        step_over = patch_bytes // out.t > ops.TILE_BYTES
        gout = rng.standard_normal(tuple(out))

        used, y = traced_peak(lambda: ops.conv3d_lowered(x, spec, w))
        assert used < y.data.nbytes + ops.TILE_BYTES
        used, (gx, gw) = traced_peak(lambda: autodiff.conv3d_backward(x, spec, w, gout))
        assert gx.shape == x.shape
        assert used < gout.nbytes + gx.nbytes + gw.nbytes + ops.TILE_BYTES
        return step_over

    def test_workspace_stays_within_the_budget(self, monkeypatch):
        """Building the matrix whole, or a padded copy of the input or of its
        gradient, fails this."""
        self.check_workspace(monkeypatch, batch=1, groups=1, hw=16)

    def test_workspace_stays_within_the_budget_for_a_grouped_batch(self, monkeypatch):
        """A tile holds every clip and group of its steps, so the plan must
        shorten the tile to match.  At 10x10 sites a step is about half the
        budget: sizing a tile for one clip, or for one group's channels,
        would put two or more steps in it and fail this."""
        self.check_workspace(monkeypatch, batch=3, groups=2, hw=10)

    @pytest.mark.parametrize("batch,groups", [(1, 1), (2, 2)])
    def test_workspace_stays_within_the_budget_when_one_step_does_not_fit(
        self, monkeypatch, batch, groups
    ):
        """At 32x32 sites one output step is over the budget, so a tile
        takes one step and a run of its rows; a tile of one whole step fails
        this."""
        assert self.check_workspace(monkeypatch, batch=batch, groups=groups, hw=32)


def padded(a: np.ndarray, padding, value=0.0) -> np.ndarray:
    return np.pad(a, [(0, 0), (0, 0), *((p, p) for p in padding)], constant_values=value)


def tap_views(ap: np.ndarray, window, starts, dims):
    """Per kernel tap in layout order, the strided view of the padded array
    ``ap`` that the output sites from ``starts`` on (extent ``dims``) read."""
    return [
        ap[(..., *(slice(d + o * s, d + (o + n) * s, s)
                   for d, o, n, s in zip(tap, starts, dims, window.stride)))]
        for tap in itertools.product(*map(range, window.kernel))
    ]


def tile_starts(tile) -> tuple[int, int, int]:
    """The first output site of one ``ops._time_tiles`` tile, per axis."""
    return tuple(s.start for s in tile.sites[-3:])


def padded_cols(ap: np.ndarray, spec: Conv3DSpec, tile) -> np.ndarray:
    """The patch matrix of one ``ops._time_tiles`` tile of the padded ``ap``."""
    views = tap_views(ap, spec, tile_starts(tile), tile.dims)
    return np.stack(views, axis=2).astype(ops.COMPUTE).reshape(len(ap), -1, math.prod(tile.dims))


def padded_conv(x: np.ndarray, spec: Conv3DSpec, w: np.ndarray) -> np.ndarray:
    """The lowering on a whole padded copy of the input, over the tiles
    ``ops._time_tiles`` cuts."""
    cg, og = spec.in_channels // spec.groups, spec.out_channels // spec.groups
    w = w.astype(ops.COMPUTE)
    xp = padded(x, spec.padding)
    n, shape = x.shape[0], Shape5(*x.shape)
    y = np.empty(spec.output_shape(shape), np.float32)
    for tile in ops._time_tiles(spec, shape):
        for g in range(spec.groups):
            cs, os_ = slice(g * cg, (g + 1) * cg), slice(g * og, (g + 1) * og)
            cols = padded_cols(xp[:, cs], spec, tile)
            y[:, os_][tile.sites] = (w[os_].reshape(og, -1) @ cols).reshape(n, og, *tile.dims)
    return y


def padded_conv_backward(x, spec, w, gout):
    """The backward on a whole padded copy of the input, tile by tile, then
    group by group, then clip by clip: the order in which the lowering adds
    each tile's and clip's share into ``gw``."""
    cg, og = spec.in_channels // spec.groups, spec.out_channels // spec.groups
    kcols = cg * math.prod(spec.kernel)
    w = w.astype(ops.COMPUTE)
    xp = padded(x, spec.padding)
    gxp = np.zeros(xp.shape)
    gw = np.zeros((spec.out_channels, kcols))
    for tile in ops._time_tiles(spec, Shape5(*x.shape)):
        for g in range(spec.groups):
            cs, os_ = slice(g * cg, (g + 1) * cg), slice(g * og, (g + 1) * og)
            for i in range(x.shape[0]):
                cols = padded_cols(xp[i : i + 1, cs], spec, tile)[0]
                gmat = gout[i, os_][tile.sites].reshape(og, -1)
                gw[os_] += gmat @ cols.T
                gcols = (w[os_].reshape(og, -1).T @ gmat).reshape(cg, -1, *tile.dims)
                for k, view in enumerate(tap_views(gxp[i, cs], spec, tile_starts(tile),
                                                   tile.dims)):
                    view += gcols[:, k]
    return unpadded(gxp, spec.padding, x.shape), gw.reshape(spec.weight_shape)


def unpadded(ap: np.ndarray, padding, shape) -> np.ndarray:
    return ap[(..., *(slice(p, p + s) for p, s in zip(padding, shape[2:])))]


def padded_pool(x: np.ndarray, spec: PoolSpec, gout: np.ndarray):
    """Pooling forward and backward on a whole padded copy of the input."""
    out = spec.output_shape(Shape5(*x.shape))
    dims = (out.t, out.h, out.w)
    fill = -np.inf if spec.kind == "max" else 0.0
    xp = padded(x, spec.padding, fill)
    views = tap_views(xp, spec, (0, 0, 0), dims)
    gxp = np.zeros(xp.shape)
    gviews = tap_views(gxp, spec, (0, 0, 0), dims)
    if spec.kind == "avg":
        y = np.zeros(out)
        for view in views:
            y += view
        y /= math.prod(spec.kernel)
        for gview in gviews:
            gview += gout / math.prod(spec.kernel)
        return y, unpadded(gxp, spec.padding, x.shape)
    y = np.full(out, -np.inf, np.float32)
    best_k = np.zeros(out, int)
    for k, view in enumerate(views):
        best_k[view > y] = k
        np.maximum(y, view, out=y)
    for k, gview in enumerate(gviews):
        gview += np.where(best_k == k, gout, 0.0)
    return y, unpadded(gxp, spec.padding, x.shape)


@st.composite
def window_cases(draw):
    """A conv, a pool of the same kernel and stride, an input, a tile budget
    and a max-pool row block budget (1 puts each row in a block of its own).
    Conv t-padding may reach past the kernel, so that some tiles read only
    padding; a pool's padding stays below its kernel."""
    kernel = tuple(draw(st.integers(1, 4)) for _ in range(3))
    stride = tuple(draw(st.integers(1, 2)) for _ in range(3))
    pool_pad = tuple(draw(st.integers(0, k - 1)) for k in kernel)
    conv_pad = (draw(st.integers(0, kernel[0] + 2)), *pool_pad[1:])
    groups = draw(st.integers(1, 3))
    spec = Conv3DSpec(
        groups * draw(st.integers(1, 2)), groups * draw(st.integers(1, 2)),
        kernel, stride, conv_pad, groups,
    )
    pool = PoolSpec(draw(st.sampled_from(["max", "avg"])), kernel, stride, pool_pad)
    extent = tuple(draw(st.integers(k, k + 4)) for k in kernel)
    n = draw(st.integers(1, 2))
    budget = draw(st.sampled_from([1, 4096, ops.TILE_BYTES]))
    pool_budget = draw(st.sampled_from([1, 1024, ops._POOL_BLOCK_BYTES]))
    shape = (n, spec.in_channels, *extent)
    return spec, pool, shape, budget, pool_budget, draw(st.integers(0, 2**16))


class TestPaddedReference:
    """Every conv and pool reads its padding through ``ops._tap_plan`` and
    never builds a padded copy.  An ``np.pad`` copy is the reference: the
    outputs and gradients must match it bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    # a 1-step tile that reads only t-padding, at either end
    @example((Conv3DSpec(2, 2, (1, 3, 3), (1, 1, 1), (3, 1, 1)),
              PoolSpec("max", (1, 3, 3), (1, 1, 1), (0, 1, 1)), (1, 2, 4, 5, 5), 1, 1, 0))
    @given(window_cases())
    def test_matches_the_padded_reference(self, case):
        spec, pool, shape, budget, pool_budget, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape).astype(np.float32)
        if seed % 2:  # ties, which max pooling breaks by layout order
            x = np.round(x)
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        gout = rng.standard_normal(spec.output_shape(Shape5(*shape)))
        pout = rng.standard_normal(pool.output_shape(Shape5(*shape)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "TILE_BYTES", budget)
            mp.setattr(ops, "_POOL_BLOCK_BYTES", pool_budget)
            got = [
                ops.conv3d_lowered(Tensor5D(x), spec, w).data,
                *autodiff.conv3d_backward(Tensor5D(x), spec, w, gout),
                ops.pool3d(Tensor5D(x), pool).data,
                autodiff.pool3d_backward(Tensor5D(x), pool, pout),
            ]
            want = [padded_conv(x, spec, w), *padded_conv_backward(x, spec, w, gout)]
        py, pgx = padded_pool(x, pool, pout)
        want += [py.astype(np.float32), pgx]
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == np.ascontiguousarray(b).tobytes()


class TestFactorizationIdentity:
    def test_composite_kernel_equivalence(self):
        # spatial 1xKhxKw (C->M) then temporal Ktx1x1 (M->O) with no
        # nonlinearity equals one KtxKhxKw conv (C->O) with the contracted
        # composite kernel
        rng = np.random.default_rng(5)
        for _ in range(50):
            c, m, o = (int(rng.integers(1, 4)) for _ in range(3))
            kt, kh, kw = (int(rng.integers(1, 4)) for _ in range(3))
            x = Tensor5D(rng.standard_normal((1, c, 5, 6, 6)).astype(np.float32))
            spatial = Conv3DSpec(c, m, (1, kh, kw))
            temporal = Conv3DSpec(m, o, (kt, 1, 1))
            ks = rng.standard_normal(spatial.weight_shape).astype(np.float32)
            ktw = rng.standard_normal(temporal.weight_shape).astype(np.float32)
            two = ops.conv3d_lowered(ops.conv3d_lowered(x, spatial, ks), temporal, ktw)
            full = Conv3DSpec(c, o, (kt, kh, kw))
            composite = np.einsum("omt,mcyx->octyx", ktw[:, :, :, 0, 0], ks[:, :, 0])
            one = ops.conv3d_lowered(x, full, composite.astype(np.float32))
            np.testing.assert_allclose(two.data, one.data, atol=1e-4)


class TestChannelShuffle:
    def test_permutation_formula(self):
        c, g = 480, 16
        x = Tensor5D(np.arange(c, dtype=np.float32).reshape(1, c, 1, 1, 1))
        y = ops.channel_shuffle(x, g)
        assert y.data[0, 0, 0, 0, 0] == 0  # fixed point
        assert y.data[0, 17, 0, 0, 0] == 31  # channel 31 (i=1, j=1) -> 1*16+1
        per = c // g
        for src in range(c):
            i, j = divmod(src, per)
            assert y.data[0, j * g + i, 0, 0, 0] == src

    def test_identity_when_one_group(self):
        rng = np.random.default_rng(1)
        x = Tensor5D(rng.standard_normal((1, 6, 2, 2, 2)).astype(np.float32))
        assert ops.channel_shuffle(x, 1) == x

    def test_bijection_inverse(self):
        rng = np.random.default_rng(2)
        for g, c in ((16, 480), (4, 12), (2, 8)):
            x = Tensor5D(rng.standard_normal((2, c, 2, 2, 2)).astype(np.float32))
            assert ops.channel_shuffle(ops.channel_shuffle(x, g), c // g) == x

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            ops.channel_shuffle(Tensor5D(np.zeros((1, 5, 1, 1, 1), np.float32)), 2)


class TestPooling:
    def test_max_and_avg_window_values(self):
        x = Tensor5D(
            np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 1, 1, 2, 2)
        )
        spec_max = PoolSpec("max", (1, 2, 2))
        spec_avg = PoolSpec("avg", (1, 2, 2))
        assert ops.pool3d(x, spec_max).data.reshape(-1)[0] == 4.0
        assert ops.pool3d(x, spec_avg).data.reshape(-1)[0] == 2.5

    def test_max_padding_never_wins(self):
        x = Tensor5D(np.full((1, 1, 1, 1, 1), -5.0, dtype=np.float32))
        y = ops.pool3d(x, PoolSpec("max", (3, 3, 3), (1, 1, 1), (1, 1, 1)))
        assert y.data.reshape(-1)[0] == -5.0

    def test_avg_divides_by_full_kernel_volume(self):
        x = Tensor5D(np.full((1, 1, 1, 1, 1), 8.0, dtype=np.float32))
        y = ops.pool3d(x, PoolSpec("avg", (1, 2, 2), (1, 1, 1), (0, 1, 1)))
        # corner window covers one real element and three zero pads
        assert y.data[0, 0, 0, 0, 0] == 2.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PoolSpec("median", (2, 2, 2))

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError, match="padding must be nonnegative"):
            PoolSpec("max", (3, 3, 3), (1, 1, 1), (-1, 0, 0))

    @pytest.mark.parametrize("axis", range(3))
    def test_rejects_padding_not_below_kernel(self, axis):
        """A window of padding alone would make a max pool -inf."""
        padding = [0, 0, 0]
        padding[axis] = 2
        with pytest.raises(ValueError, match=f"padding 2 on axis {'thw'[axis]} is not below"):
            PoolSpec("max", (2, 2, 2), (1, 1, 1), tuple(padding))

    def test_pooling_holds_no_padded_copy(self):
        """Peak traced memory of the modules' 3x3x3 max pool: the forward
        holds its output and under a quarter of the input more; the backward
        holds its gradient and one row block's workspace, under twice the
        gradient more.  A padded copy of the input or of its gradient breaks
        either bound."""
        rng = np.random.default_rng(0)
        x = Tensor5D(rng.standard_normal((1, 64, 8, 28, 28)).astype(np.float32))
        spec = PoolSpec("max", (3, 3, 3), (1, 1, 1), (1, 1, 1))
        gout = rng.standard_normal(tuple(spec.output_shape(x.shape)))

        used, y = traced_peak(lambda: ops.pool3d(x, spec))
        assert used < y.data.nbytes + x.data.nbytes // 4
        used, gx = traced_peak(lambda: autodiff.pool3d_backward(x, spec, gout))
        assert used < 3 * gx.nbytes

    def test_max_pool_backward_holds_its_gradient_and_one_block(self):
        """The module max pool's backward, split into row blocks, holds its
        gradient and one block's workspace: the per-axis maxima and taps,
        the winners' indices and the scatter ordered by tap, about ten
        times the block's input.  A pass per kernel tap holds the running
        max, its tap and mask and one tap's gradient part over the whole
        output (9.24 MB where this bound is 4.26 MB)."""
        rng = np.random.default_rng(0)
        x = Tensor5D(rng.standard_normal((1, 64, 8, 28, 28)).astype(np.float32))
        spec = PoolSpec("max", (3, 3, 3), (1, 1, 1), (1, 1, 1))
        gout = rng.standard_normal(tuple(spec.output_shape(x.shape)))
        assert len(ops._row_blocks(x.data)) > 1
        used, gx = traced_peak(lambda: autodiff.pool3d_backward(x, spec, gout))
        assert used < gx.nbytes + 16 * ops._POOL_BLOCK_BYTES


class TestBatchNorm:
    def test_hand_evaluated_formula(self):
        x = Tensor5D(np.full((1, 1, 1, 1, 1), 5.0, dtype=np.float32))
        y = ops.batchnorm_infer(x, [2.0], [1.0], [3.0], [4.0])
        assert y.data.reshape(-1)[0] == np.float32(2.0 * (5.0 - 3.0) / np.sqrt(4.0 + BN_EPS) + 1.0)

    def test_zero_variance_guarded_by_eps(self):
        x = Tensor5D(np.full((1, 1, 1, 1, 1), 1.0, dtype=np.float32))
        assert np.isfinite(ops.batchnorm_infer(x, [1.0], [0.0], [0.0], [0.0]).data).all()

    def test_identity_params(self):
        rng = np.random.default_rng(4)
        x = Tensor5D(rng.standard_normal((1, 3, 2, 2, 2)).astype(np.float32))
        y = ops.batchnorm_infer(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3))
        assert np.array_equal(y.data, (x.data * (1.0 / np.sqrt(1.0 + BN_EPS))).astype(np.float32))

    def test_rejects_channel_mismatch(self):
        x = Tensor5D(np.zeros((1, 3, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="batch-norm has 2 channels, input has 3"):
            ops.batchnorm_infer(x, *(np.ones(2) for _ in range(4)))


class TestSoftmax:
    def test_two_logit_values(self):
        x = Tensor5D(
            np.array([0.0, np.log(3.0)], dtype=np.float32).reshape(1, 2, 1, 1, 1)
        )
        y = ops.softmax_channels(x)
        np.testing.assert_allclose(y.data.reshape(-1), [0.25, 0.75], atol=1e-6)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(9)
        x = Tensor5D(rng.standard_normal((2, 5, 2, 2, 2)).astype(np.float32))
        y = ops.softmax_channels(x)
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-5)
        shifted = Tensor5D(x.data + np.float32(100.0))
        np.testing.assert_allclose(
            ops.softmax_channels(shifted).data, y.data, atol=1e-5
        )


def test_glorot_uniform_bound_and_determinism():
    spec = Conv3DSpec(4, 8, (3, 3, 3), groups=2)
    w1 = ops.glorot_uniform(spec, np.random.default_rng(5))
    w2 = ops.glorot_uniform(spec, np.random.default_rng(5))
    assert np.array_equal(w1, w2)
    assert w1.shape == spec.weight_shape
    bound = np.sqrt(6.0 / ((2 * 27) + (4 * 27)))
    assert np.abs(w1).max() <= bound
