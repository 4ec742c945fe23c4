"""Neural operators on rank-5 tensors.

3D convolution ships as two independent implementations with identical
contracts: ``conv3d_direct`` accumulates shifted input slices per kernel
offset, ``conv3d_lowered`` builds a patch matrix and multiplies.  Their
outputs agree to well under 1e-4, so each serves as an oracle for the other.

No op copies its input padded.  ``_tap_plan`` clips each kernel tap to the
output sites whose inputs exist and gives the strided view of the unpadded
input they read; every conv and pool, forward and backward, works from it.
A patch matrix starts at zero and only the taps' in-range regions are
copied into it, so padded taps read zeros there; pooling skips them, and
they get no gradient.

Max pooling is separable: max is exact in any order, so ``pool3d`` and
``autodiff.pool3d_backward`` reduce along w, then h, then t, each pass over
the tap plan of a one-axis window (``_axis_plans``).  They work on
``_row_blocks``: runs of ``(n*c)`` rows whose input fits
``_POOL_BLOCK_BYTES``, so their workspace does not grow with the input.

The lowering never holds a whole patch matrix.  ``_time_tiles`` cuts the
output into tiles whose float64 workspace fits ``TILE_BYTES`` (12 MiB): runs
of output time steps, or, when one step is larger than that, one step and a
run of output rows.  Each tile lowers only the input slab it reads, for the
whole batch and every group in one patch matrix, multiplies and stores its
output block.  The forward and ``autodiff.conv3d_backward`` share that one
plan, and each frees a tile's arrays before it builds the next.

``COMPUTE`` is the one owner of the accumulation dtype: patch matrices, avg
pooling, batch norm, softmax and every gradient in ``autodiff`` use it.  The
``Tensor5D`` constructor is the one float32 store, and numpy's promotion does
every other cast.  Only the oracle ``conv3d_direct`` names its own dtype.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import Shape5, Tensor5D

Triple = tuple[int, int, int]

COMPUTE = np.float64
# the one batch-norm epsilon; the bn kernels cast their vectors to COMPUTE
# before adding it, since a float32 var + BN_EPS stays float32 under numpy's
# weak scalars
BN_EPS = 1e-5
# the float64 workspace one conv lowering tile may hold; a tile takes at
# least one output row, however wide
TILE_BYTES = 12 * 2**20
# the input one block of max-pooling rows may hold; a block takes at least
# one (n, c) row, and its maxima, tap indices and winners take a few times
# that (``pool3d``, ``autodiff.pool3d_backward``)
_POOL_BLOCK_BYTES = 64 * 2**10


def _check_window(spec) -> None:
    """Kernel, stride and padding rules shared by conv and pool specs."""
    if any(k < 1 for k in spec.kernel) or any(s < 1 for s in spec.stride):
        raise ValueError("kernel and stride components must be positive")
    if any(p < 0 for p in spec.padding):
        raise ValueError("padding must be nonnegative")


def _window_dims(spec, x: Shape5, what: str) -> list[int]:
    """Output extents (t, h, w) of a conv or pool window sliding over ``x``."""
    dims = [
        (s + 2 * p - k) // st + 1
        for s, p, k, st in zip((x.t, x.h, x.w), spec.padding, spec.kernel, spec.stride)
    ]
    if any(d < 1 for d in dims):
        raise ValueError(f"nonpositive {what} output extent {dims} for input {tuple(x)}")
    return dims


@dataclass(frozen=True)
class Conv3DSpec:
    """Bias-free 3D convolution; in/out channels must divide by ``groups``."""

    in_channels: int
    out_channels: int
    kernel: Triple
    stride: Triple = (1, 1, 1)
    padding: Triple = (0, 0, 0)
    groups: int = 1

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1 or self.groups < 1:
            raise ValueError("channel and group counts must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"channels ({self.in_channels}->{self.out_channels}) "
                f"not divisible by groups={self.groups}"
            )
        _check_window(self)

    @property
    def param_count(self) -> int:
        return math.prod(self.weight_shape)

    @property
    def weight_shape(self) -> tuple[int, int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups, *self.kernel)

    def output_shape(self, x: Shape5) -> Shape5:
        if x.c != self.in_channels:
            raise ValueError(f"input has {x.c} channels, spec wants {self.in_channels}")
        return Shape5(x.n, self.out_channels, *_window_dims(self, x, "conv"))

    def macs(self, out: Shape5) -> int:
        """Multiply-accumulates that produce the output ``out``."""
        return out.size * (self.in_channels // self.groups) * math.prod(self.kernel)


@dataclass(frozen=True)
class PoolSpec:
    kind: str  # "max" | "avg"
    kernel: Triple
    stride: Triple = (1, 1, 1)
    padding: Triple = (0, 0, 0)

    def __post_init__(self):
        if self.kind not in ("max", "avg"):
            raise ValueError(f"unknown pool kind {self.kind!r}")
        _check_window(self)
        # so that every window holds at least one input
        for axis, k, p in zip("thw", self.kernel, self.padding):
            if p >= k:
                raise ValueError(f"pool padding {p} on axis {axis} is not below its kernel {k}")

    def output_shape(self, x: Shape5) -> Shape5:
        return Shape5(x.n, x.c, *_window_dims(self, x, "pool"))

    def macs(self, out: Shape5) -> int:
        """Kernel-volume operations per element of the output ``out``."""
        return out.size * math.prod(self.kernel)


@dataclass
class MacCounter:
    """Multiply-accumulates performed by ``conv3d_lowered`` calls, in total;
    ``perfbench/tracer.py`` reads it and keeps its own per-layer tally."""

    macs: int = 0


class TapPlan(NamedTuple):
    """Where a window's taps read an unpadded input, for the block of output
    sites ``sites`` (extent ``dims``), which reads the input ``slab``; both
    index the trailing (t, h, w) axes.  ``taps`` holds ``(k, region,
    source)`` for each tap, in layout order, that reads any input:
    ``region`` indexes the block's sites whose inputs exist and ``source``
    the strided view of the slab they read.  Every other site of a tap is
    padding, which the plan does not list: a patch matrix starts at zero,
    and pooling starts from its identity.  A block of the whole output reads
    a slab that starts at the input's first site, so its sources index the
    input itself."""

    sites: tuple
    slab: tuple
    dims: Triple
    kernel: Triple
    taps: tuple


def _tap_plan(
    window, x_dims: Triple, t0: int, t1: int, h0: int = 0, h1: int | None = None
) -> TapPlan:
    """The ``TapPlan`` of a conv or pool window over an input of extent
    ``x_dims``, for output time steps ``t0`` to ``t1``, rows ``h0`` to
    ``h1`` (to the last if None) and every column."""
    sites, slab, lead, extent = [], [], [], []
    for o0, o1, s, p, k, st in zip(
        (t0, h0, 0), (t1, h1, None), x_dims, window.padding, window.kernel, window.stride
    ):
        if o1 is None:
            o1 = (s + 2 * p - k) // st + 1
        # the inputs the outputs o0 to o1 read, clipped to the input
        i0 = min(max(o0 * st - p, 0), s)
        i1 = max(min((o1 - 1) * st - p + k, s), i0)
        sites.append(slice(o0, o1))
        slab.append(slice(i0, i1))
        lead.append(p + i0 - o0 * st)
        extent.append(i1 - i0)
    dims = tuple(o.stop - o.start for o in sites)
    taps = _slab_taps(window.kernel, window.stride, tuple(lead), tuple(extent), dims)
    return TapPlan((..., *sites), (..., *slab), dims, window.kernel, taps)


@functools.lru_cache(maxsize=1024)
def _slab_taps(kernel: Triple, stride: Triple, lead: Triple, extent: Triple, dims: Triple):
    """``TapPlan.taps`` for ``dims`` output sites over a slab of extent
    ``extent`` whose first site sits ``lead`` sites into the padded input.
    It does not depend on where the block sits, so equal interior tiles
    share one entry, and the cache does not grow with the tile count."""
    # per axis and kernel offset: the output sites whose input o*st + d - p
    # lies in the slab [0, s), and the slab sites they read
    axes = []
    for s, p, k, st, o in zip(extent, lead, kernel, stride, dims):
        offsets = []
        for d in range(k):
            lo = min(max(0, -((d - p) // st)), o)
            hi = max(min(o, (s - 1 + p - d) // st + 1), lo)
            i0 = lo * st + d - p
            offsets.append((slice(lo, hi), slice(i0, i0 + (hi - lo) * st, st)))
        axes.append(offsets)
    taps = []
    for k, parts in enumerate(itertools.product(*axes)):
        region, source = zip(*parts)
        if all(r.start < r.stop for r in region):
            taps.append((k, (..., *region), (..., *source)))
    return tuple(taps)


def conv3d_direct(
    x: Tensor5D,
    spec: Conv3DSpec,
    weights: np.ndarray,
    tag: str | None = None,
) -> Tensor5D:
    """Direct convolution: accumulate one shifted input slice per kernel tap.
    ``tag`` is unused; it lets the oracle stand in for ``conv3d_lowered``
    at its call in ``autodiff.KINDS``."""
    out_shape = spec.output_shape(x.shape)
    w = _check_weights(spec, weights)
    plan = _tap_plan(spec, x.shape[2:], 0, out_shape.t)
    xd = x.data.astype(np.float64)
    cg = spec.in_channels // spec.groups
    og = spec.out_channels // spec.groups
    out = np.zeros(out_shape, dtype=np.float64)
    for g in range(spec.groups):
        xg = xd[:, g * cg : (g + 1) * cg]
        wg = w[g * og : (g + 1) * og].astype(np.float64).reshape(og, cg, -1)
        acc = out[:, g * og : (g + 1) * og]
        for k, region, source in plan.taps:
            acc[region] += np.einsum("oc,ncthw->nothw", wg[:, :, k], xg[source])
    return Tensor5D(out)


def _im2col(x: np.ndarray, plan: TapPlan) -> np.ndarray:
    """(n, c*kvol, L) patch matrix of one ``plan`` tile of the unpadded input
    ``x``.  It starts at zero and only each tap's in-range region is copied
    from its view of the tile's slab, so the padding sites stay zero."""
    n, c = x.shape[:2]
    slab = x[plan.slab]
    cols = np.zeros((n, c, math.prod(plan.kernel), *plan.dims), COMPUTE)
    for k, region, source in plan.taps:
        cols[:, :, k][region] = slab[source]
    return cols.reshape(n, -1, math.prod(plan.dims))


def _col2im(gx: np.ndarray, plan: TapPlan, part):
    """Transpose of ``_im2col``: add ``part(k, region)``, the k-th tap's
    gradient at the sites of ``region``, into the unpadded input gradient
    ``gx`` in place, through its view of the tile's slab.  Padding sites get
    nothing."""
    slab = gx[plan.slab]
    for k, region, source in plan.taps:
        slab[source] += part(k, region)


def _site_bytes(spec: Conv3DSpec, n: int) -> int:
    """Float64 workspace of one output site of a conv lowering tile for a
    batch of ``n``: a column of the batch's patch matrix over every group (or
    of its gradient, never both) and the product's values (or the output
    gradient's)."""
    values = n * (spec.in_channels * math.prod(spec.kernel) + spec.out_channels)
    return values * np.dtype(COMPUTE).itemsize


def _time_tiles(spec: Conv3DSpec, x: Shape5) -> tuple[TapPlan, ...]:
    """The conv lowering's one tile plan, which the forward and
    ``autodiff.conv3d_backward`` share: the ``TapPlan`` of each tile, in
    (t, h) order.  A tile takes as many whole output time steps as keep its
    workspace (``_site_bytes`` per site) within ``TILE_BYTES``; when one
    step is larger, it takes one step and as many output rows, and at least
    one.  Each axis is cut into the fewest tiles that fit, as even as that
    allows: a last tile of a few rows would save nothing."""
    return _tile_plan(spec, x, TILE_BYTES)


@functools.lru_cache(maxsize=256)
def _tile_plan(spec: Conv3DSpec, x: Shape5, budget: int) -> tuple[TapPlan, ...]:
    """``_time_tiles`` under the workspace ``budget``, kept per conv and
    input shape: a training step or a forward lowers every conv again."""
    ot, oh, ow = _window_dims(spec, x, "conv")
    rows = max(1, budget // (_site_bytes(spec, x.n) * ow))
    steps, rows = (rows // oh, oh) if rows >= oh else (1, rows)
    return tuple(
        _tap_plan(spec, x[2:], t0, t1, h0, h1)
        for t0, t1 in _runs(ot, steps)
        for h0, h1 in _runs(oh, rows)
    )


def _runs(extent: int, most: int) -> list[tuple[int, int]]:
    """The fewest runs of at most ``most`` that cover ``range(extent)``,
    each as long as the first but the last."""
    step = -(-extent // -(-extent // most))
    return [(a, min(a + step, extent)) for a in range(0, extent, step)]


def conv3d_lowered(
    x: Tensor5D,
    spec: Conv3DSpec,
    weights: np.ndarray,
    counter: MacCounter | None = None,
    tag: str | None = None,
) -> Tensor5D:
    """Convolution by patch-matrix lowering and matrix multiply, one
    ``_time_tiles`` tile at a time.  Each tile builds one patch matrix for
    the whole batch and every group, and one stacked matmul multiplies each
    (clip, group) block by its group's weights.  ``counter`` gains the
    call's MACs; ``tag`` names the layer.  Only ``perfbench/tracer.py``
    reads either."""
    out_shape = spec.output_shape(x.shape)
    # cast once: a float32 weight is cast again by every tile's matmul;
    # COMPUTE weights (a folded conv's) are used as they are
    w = np.asarray(_check_weights(spec, weights), dtype=COMPUTE)
    wmat = w.reshape(spec.groups, spec.out_channels // spec.groups, -1)
    out = np.empty(out_shape, dtype=np.float32)
    for plan in _time_tiles(spec, x.shape):
        # rows run channel by channel, so group g's block is its own patch matrix
        cols = _im2col(x.data, plan).reshape(x.n, spec.groups, wmat.shape[2], -1)
        out[plan.sites] = (wmat @ cols).reshape(x.n, spec.out_channels, *plan.dims)
        del cols  # freed before the next _im2col allocates
    if counter is not None:
        counter.macs += spec.macs(out_shape)
    return Tensor5D(out)


def _check_weights(spec: Conv3DSpec, weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights)
    if w.shape != spec.weight_shape:
        raise ValueError(f"weights shape {w.shape} != expected {spec.weight_shape}")
    return w


def channel_shuffle(x: Tensor5D, groups: int) -> Tensor5D:
    """Reshape-transpose shuffle: channel i*n + j moves to j*g + i (n = c/g)."""
    if groups < 1 or x.c % groups:
        raise ValueError(f"channels {x.c} not divisible by groups {groups}")
    n, c, t, h, w = x.data.shape
    per = c // groups
    y = (
        x.data.reshape(n, groups, per, t, h, w)
        .transpose(0, 2, 1, 3, 4, 5)
        .reshape(n, c, t, h, w)
    )
    return Tensor5D(y)


@functools.lru_cache(maxsize=256)
def _axis_plans(spec: PoolSpec, x_dims: Triple) -> tuple[TapPlan, TapPlan, TapPlan]:
    """The tap plans of separable max pooling's passes along w, then h, then
    t over an input of extent ``x_dims``: each a one-axis window of
    ``spec`` over what the pass before leaves.  Their taps index the
    trailing three axes of a block of rows laid out (row, t, h, w)."""
    plans, dims = [], tuple(x_dims)
    for a in (2, 1, 0):
        window = PoolSpec("max", *(
            tuple(v[i] if i == a else rest for i in range(3))
            for v, rest in ((spec.kernel, 1), (spec.stride, 1), (spec.padding, 0))
        ))
        ot = _window_dims(window, Shape5(1, 1, *dims), "pool")[0]
        plans.append(_tap_plan(window, dims, 0, ot))
        dims = plans[-1].dims
    return tuple(plans)


def _row_blocks(x: np.ndarray) -> list[slice]:
    """Runs of the ``(n*c)`` rows of ``x`` whose input fits
    ``_POOL_BLOCK_BYTES``, at least one row each."""
    rows = x.shape[0] * x.shape[1]
    step = max(1, _POOL_BLOCK_BYTES // x[0, 0].nbytes)
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def _max_pass(src: np.ndarray, plan: TapPlan, out: np.ndarray | None = None) -> np.ndarray:
    """The max over one ``_axis_plans`` pass's taps of the rows ``src``,
    into ``out`` if given.  Padded taps are skipped, and so is nan
    (``np.fmax``), as ``autodiff._first_max`` skips it."""
    if out is None:
        out = np.empty((len(src), *plan.dims), src.dtype)
    out.fill(-np.inf)
    for _, region, source in plan.taps:
        acc = out[region]
        np.fmax(acc, src[source], out=acc)
    return out


def pool3d(x: Tensor5D, spec: PoolSpec) -> Tensor5D:
    """Max pooling ignores padding and nan: a window of only nan outputs
    -inf.  Average pooling counts padding as zeros and always divides by the
    full kernel volume.

    Max is exact in any order, so a max pool is three one-axis passes (w,
    then h, then t) over ``_row_blocks`` of the input: 3+3+3 taps for a
    3x3x3 window where a per-tap pass takes 27.  Average pooling adds its
    taps one at a time, since a separable sum would round differently."""
    out_shape = spec.output_shape(x.shape)
    if spec.kind == "max":
        out = np.empty(out_shape, dtype=np.float32)
        rows, out_rows = x.data.reshape(-1, *x.shape[2:]), out.reshape(-1, *out_shape[2:])
        along_w, along_h, along_t = _axis_plans(spec, x.shape[2:])
        for r in _row_blocks(x.data):
            _max_pass(_max_pass(_max_pass(rows[r], along_w), along_h), along_t, out_rows[r])
        return Tensor5D(out)
    out = np.zeros(out_shape, dtype=COMPUTE)
    for _, region, source in _tap_plan(spec, x.shape[2:], 0, out_shape.t).taps:
        acc = out[region]
        np.add(acc, x.data[source], out=acc)
    out /= math.prod(spec.kernel)
    return Tensor5D(out)


def batchnorm_infer(x: Tensor5D, gamma, beta, mean, var) -> Tensor5D:
    """Frozen batch norm: y = gamma * (x - mean) / sqrt(var + BN_EPS) + beta.

    Training, ``autodiff.calibrate_init`` and the ``conv3d_direct`` oracle
    run it; an inference forward folds each bn that follows a conv into
    that conv's weights instead (``autodiff.forward``)."""
    gamma, beta, mean, var = (np.asarray(v, dtype=COMPUTE) for v in (gamma, beta, mean, var))
    if len(gamma) != x.c:
        raise ValueError(f"batch-norm has {len(gamma)} channels, input has {x.c}")
    std = np.sqrt(var + BN_EPS)
    scale = (gamma / std).reshape(1, -1, 1, 1, 1)
    shift = (beta - mean * gamma / std).reshape(1, -1, 1, 1, 1)
    y = x.data * scale
    y += shift  # in place: one COMPUTE temporary, not two
    return Tensor5D(y)


def softmax_channels(x: Tensor5D) -> Tensor5D:
    """Exp-normalize over the channel axis at every (n, t, h, w) site."""
    z = x.data.astype(COMPUTE)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return Tensor5D(e / e.sum(axis=1, keepdims=True))


def glorot_uniform(spec: Conv3DSpec, rng: np.random.Generator) -> np.ndarray:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out)) for reproducible
    cross-implementation tests."""
    kvol = math.prod(spec.kernel)
    fan_in = (spec.in_channels // spec.groups) * kvol
    fan_out = (spec.out_channels // spec.groups) * kvol
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=spec.weight_shape).astype(np.float32)
