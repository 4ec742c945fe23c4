"""Neural operators on rank-5 tensors.

3D convolution ships as two independent implementations with identical
contracts: ``conv3d_direct`` accumulates shifted input slices per kernel
offset, ``conv3d_lowered`` builds a patch matrix and multiplies.  Their
outputs agree to well under 1e-4, so each serves as an oracle for the other.

The lowering never holds a whole patch matrix.  ``_time_tiles`` cuts the
output time axis into tiles whose float64 workspace fits ``TILE_BYTES``
(16 MB); each tile lowers only the input t-range it reads, multiplies and
stores its output slice.  The forward and ``autodiff.conv3d_backward``
share that plan.

``COMPUTE`` is the one owner of the accumulation dtype: patch matrices, avg
pooling, batch norm, softmax and every gradient in ``autodiff`` use it.  The
``Tensor5D`` constructor is the one float32 store, and numpy's promotion does
every other cast.  Only the oracle ``conv3d_direct`` names its own dtype.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import Shape5, Tensor5D

Triple = tuple[int, int, int]

COMPUTE = np.float64
# the one batch-norm epsilon; the bn kernels cast their vectors to COMPUTE
# before adding it, since a float32 var + BN_EPS stays float32 under numpy's
# weak scalars
BN_EPS = 1e-5
# the float64 workspace one conv lowering tile may hold; a tile takes at
# least one output time step, however wide
TILE_BYTES = 16 * 2**20


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


def _pad_input(x: np.ndarray, padding: Triple, value: float = 0.0) -> np.ndarray:
    pt, ph, pw = padding
    if pt == ph == pw == 0:
        return x
    return np.pad(
        x,
        ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)),
        mode="constant",
        constant_values=value,
    )


def _taps(kernel: Triple):
    """Kernel offsets in layout order: the row order of ``_im2col`` and the
    order in which max-pool ties break."""
    return itertools.product(*map(range, kernel))


def _offset_view(
    xp: np.ndarray, offset: Triple, out_dims: Triple, stride: Triple
) -> np.ndarray:
    """Strided view of the padded input aligned to one kernel offset."""
    dt, dh, dw = offset
    ot, oh, ow = out_dims
    st, sh, sw = stride
    return xp[
        :,
        :,
        dt : dt + ot * st : st,
        dh : dh + oh * sh : sh,
        dw : dw + ow * sw : sw,
    ]


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
    xp = _pad_input(x.data.astype(np.float64), spec.padding)
    cg = spec.in_channels // spec.groups
    og = spec.out_channels // spec.groups
    out_dims = (out_shape.t, out_shape.h, out_shape.w)
    out = np.zeros(out_shape, dtype=np.float64)
    for g in range(spec.groups):
        xg = xp[:, g * cg : (g + 1) * cg]
        wg = w[g * og : (g + 1) * og].astype(np.float64)
        acc = out[:, g * og : (g + 1) * og]
        for tap in _taps(spec.kernel):
            view = _offset_view(xg, tap, out_dims, spec.stride)
            acc += np.einsum("oc,ncthw->nothw", wg[(..., *tap)], view)
    return Tensor5D(out)


def _im2col(xp: np.ndarray, kernel: Triple, out_dims: Triple, stride: Triple) -> np.ndarray:
    """(n, c*kvol, L) patch matrix from a padded input."""
    n, c = xp.shape[:2]
    kvol = math.prod(kernel)
    cols = np.empty((n, c, kvol, *out_dims), dtype=COMPUTE)
    for k, tap in enumerate(_taps(kernel)):
        cols[:, :, k] = _offset_view(xp, tap, out_dims, stride)
    return cols.reshape(n, c * kvol, math.prod(out_dims))


def _col2im(gxp: np.ndarray, part, kernel: Triple, out_dims: Triple, stride: Triple):
    """Transpose of ``_im2col``: add ``part(k)``, the gradient slice of the
    k-th tap, into the padded input gradient ``gxp`` in place."""
    for k, tap in enumerate(_taps(kernel)):
        _offset_view(gxp, tap, out_dims, stride)[...] += part(k)


def _time_tiles(spec: Conv3DSpec, out_dims: Triple, per_site: int) -> list:
    """The conv lowering's tile plan: ``(ts, xs, dims)`` per tile, where
    ``ts`` slices the output t-axis, ``xs`` the padded input t-range those
    steps read and ``dims`` is the tile's output extent.  A tile takes as
    many steps as keep a workspace of ``per_site`` COMPUTE values per
    output site within ``TILE_BYTES``, and at least one."""
    ot, oh, ow = out_dims
    kt, st = spec.kernel[0], spec.stride[0]
    step = max(1, TILE_BYTES // (per_site * oh * ow * np.dtype(COMPUTE).itemsize))
    tiles = []
    for t0 in range(0, ot, step):
        t1 = min(t0 + step, ot)
        tiles.append((slice(t0, t1), slice(t0 * st, (t1 - 1) * st + kt), (t1 - t0, oh, ow)))
    return tiles


def conv3d_lowered(
    x: Tensor5D,
    spec: Conv3DSpec,
    weights: np.ndarray,
    counter: MacCounter | None = None,
    tag: str | None = None,
) -> Tensor5D:
    """Convolution by patch-matrix lowering and matrix multiply, one
    ``_time_tiles`` tile at a time.  ``counter`` gains the call's MACs;
    ``tag`` names the layer.  Only ``perfbench/tracer.py`` reads either."""
    out_shape = spec.output_shape(x.shape)
    # cast once: a float32 weight is cast again by every tile's matmul
    w = _check_weights(spec, weights).astype(COMPUTE)
    xp = _pad_input(x.data, spec.padding)
    cg = spec.in_channels // spec.groups
    og = spec.out_channels // spec.groups
    out_dims = (out_shape.t, out_shape.h, out_shape.w)
    # per output site, the workspace is a patch-matrix column and its product
    tiles = _time_tiles(spec, out_dims, x.n * (cg * math.prod(spec.kernel) + og))
    out = np.empty(out_shape, dtype=np.float32)
    for g in range(spec.groups):
        cs, os_ = slice(g * cg, (g + 1) * cg), slice(g * og, (g + 1) * og)
        wmat = w[os_].reshape(og, -1)
        for ts, xs, dims in tiles:
            cols = _im2col(xp[:, cs, xs], spec.kernel, dims, spec.stride)
            out[:, os_, ts] = (wmat @ cols).reshape(x.n, og, *dims)
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


def pool3d(x: Tensor5D, spec: PoolSpec) -> Tensor5D:
    """Max pooling pads with -inf; average pooling pads with zeros and always
    divides by the full kernel volume."""
    out_shape = spec.output_shape(x.shape)
    out_dims = (out_shape.t, out_shape.h, out_shape.w)
    if spec.kind == "max":
        fill, reduce, dtype = -np.inf, np.maximum, np.float32
    else:
        fill, reduce, dtype = 0.0, np.add, COMPUTE
    xp = _pad_input(x.data, spec.padding, value=fill)
    out = np.full(out_shape, fill, dtype=dtype)
    for tap in _taps(spec.kernel):
        reduce(out, _offset_view(xp, tap, out_dims, spec.stride), out=out)
    if spec.kind == "avg":
        out /= math.prod(spec.kernel)
    return Tensor5D(out)


def batchnorm_infer(x: Tensor5D, gamma, beta, mean, var) -> Tensor5D:
    """Frozen batch norm: y = gamma * (x - mean) / sqrt(var + BN_EPS) + beta."""
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
