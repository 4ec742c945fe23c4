"""Finite-difference verification of the analytic gradients.

Each check perturbs a single input of an operator, compares the measured
slope of a scalar projection against the analytic gradient, and reports
the worst relative error seen.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import autodiff, ops, tensor
from .ops import Conv3DSpec, PoolSpec
from .tensor import Tensor5D

EPS = 1e-3


def numeric_grad(f, x: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f(x)
        flat[i] = old - eps
        lo = f(x)
        flat[i] = old
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
    return float(np.linalg.norm(a - n) / denom)


def _worst(rng, forward, backward, *points) -> float:
    """Worst relative error between the gradients ``backward(*points, proj)``
    returns, a tuple with one per point, and the central differences of the
    projection of ``forward(*points)`` on a random direction ``proj``."""
    proj = rng.standard_normal(forward(*points).shape)

    def loss(i, v):
        y = forward(*points[:i], v, *points[i + 1 :])
        return float((y.astype(np.float64) * proj).sum())

    return max(
        relative_error(g, numeric_grad(lambda v: loss(i, v), p))
        for i, (g, p) in enumerate(zip(backward(*points, proj), points))
    )


def _check_conv(rng, spec: Conv3DSpec) -> float:
    x = rng.standard_normal((2, spec.in_channels, 3, 4, 4))
    w = rng.standard_normal(spec.weight_shape)
    return _worst(
        rng,
        lambda x, w: ops.conv3d_direct(Tensor5D(x), spec, w).data,
        lambda x, w, proj: autodiff.conv3d_backward(Tensor5D(x), spec, w.astype(np.float32), proj),
        x,
        w,
    )


def _check_pool(rng, spec: PoolSpec) -> float:
    # two windows per axis, more where the window pads
    shape = (1, 2, *(k + s for k, s in zip(spec.kernel, spec.stride)))
    if spec.kind == "max":
        # well-separated distinct values so the window maximum cannot switch
        # within the finite-difference step
        x = (rng.permutation(np.prod(shape)).reshape(shape) * 0.1).astype(np.float64)
    else:
        x = rng.standard_normal(shape)
    return _worst(
        rng,
        lambda x: ops.pool3d(Tensor5D(x), spec).data,
        lambda x, proj: (autodiff.pool3d_backward(Tensor5D(x), spec, proj),),
        x,
    )


def _check_relu(rng) -> float:
    x = rng.standard_normal((1, 3, 2, 3, 3))
    x[np.abs(x) < 0.05] += 0.1  # stay away from the kink
    return _worst(
        rng,
        lambda x: tensor.relu(Tensor5D(x)).data,
        lambda x, proj: (autodiff.relu_backward(Tensor5D(x), proj),),
        x,
    )


def _check_batchnorm(rng) -> float:
    c = 3
    x = rng.standard_normal((2, c, 2, 3, 3))
    gamma = rng.standard_normal(c)
    beta = rng.standard_normal(c)
    mean = rng.standard_normal(c) * 0.1
    var = np.abs(rng.standard_normal(c)) + 0.5
    return _worst(
        rng,
        lambda x, g, b: ops.batchnorm_infer(Tensor5D(x), g, b, mean, var).data,
        lambda x, g, b, proj: autodiff.batchnorm_backward(Tensor5D(x), g, mean, var, proj),
        x,
        gamma,
        beta,
    )


def _check_shuffle(rng) -> float:
    groups, c = 4, 8
    x = rng.standard_normal((1, c, 2, 2, 2))
    return _worst(
        rng,
        lambda x: ops.channel_shuffle(Tensor5D(x), groups).data,
        lambda x, proj: (autodiff.channel_shuffle_backward(proj, groups, c),),
        x,
    )


def _check_softmax_xent(rng) -> float:
    # two clips over four sites, so the site weights and the batch mean count
    z = rng.standard_normal((2, 5, 1, 2, 2))
    labels = rng.integers(0, 5, size=2)
    return _worst(
        rng,
        lambda z: np.asarray(autodiff.site_xent(z, labels)[0]),
        lambda z, proj: (autodiff.site_xent(z, labels)[1] * proj,),
        z,
    )


_CONV = Conv3DSpec(4, 6, (3, 1, 3), (1, 1, 1), (1, 0, 1))
_POOL = PoolSpec("max", (2, 2, 2), (2, 2, 2), (0, 0, 0))

_CHECKS = {
    "conv3d": lambda rng: _check_conv(rng, _CONV),
    "conv3d_grouped": lambda rng: _check_conv(rng, replace(_CONV, groups=2)),
    "pool_max": lambda rng: _check_pool(rng, _POOL),
    "pool_avg": lambda rng: _check_pool(rng, replace(_POOL, kind="avg")),
    "relu": _check_relu,
    "batchnorm": _check_batchnorm,
    "shuffle": _check_shuffle,
    "softmax_xent": _check_softmax_xent,
}

OPS = tuple(_CHECKS)


def check_op(op: str, trials: int = 20, seed: int = 0) -> float:
    """Worst relative error over ``trials`` random instances of ``op``."""
    if op not in _CHECKS:
        raise ValueError(f"unknown op {op!r}; choose from {OPS}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    return max(_CHECKS[op](np.random.default_rng((seed << 16) + k)) for k in range(trials))
