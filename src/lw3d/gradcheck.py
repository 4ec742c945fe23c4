"""Finite-difference verification of the analytic gradients.

Each check perturbs a single input of an operator, compares the measured
slope of a scalar projection against the analytic gradient, and reports
the worst relative error seen.
"""

from __future__ import annotations

import numpy as np

from . import autodiff, ops
from .ops import BatchNormParams, Conv3DSpec, PoolSpec
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


def _rand_x(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape)


def _check_conv(rng, groups: int) -> float:
    cin, cout = 4, 6
    spec = Conv3DSpec(cin, cout, (3, 1, 3), (1, 1, 1), (1, 0, 1), groups)
    x = _rand_x(rng, (2, cin, 3, 4, 4))
    w = _rand_x(rng, spec.weight_shape)
    proj = _rand_x(rng, tuple(spec.output_shape(Tensor5D(x.astype(np.float32)).shape)))

    def loss_x(xv):
        y = ops.conv3d_direct(Tensor5D(xv.astype(np.float32)), spec, w)
        return float((y.data.astype(np.float64) * proj).sum())

    def loss_w(wv):
        y = ops.conv3d_direct(Tensor5D(x.astype(np.float32)), spec, wv)
        return float((y.data.astype(np.float64) * proj).sum())

    gx, gw = autodiff.conv3d_backward(
        Tensor5D(x.astype(np.float32)), spec, w.astype(np.float32), proj
    )
    ex = relative_error(gx, numeric_grad(loss_x, x))
    ew = relative_error(gw, numeric_grad(loss_w, w))
    return max(ex, ew)


def _check_pool(rng, kind: str) -> float:
    spec = PoolSpec(kind, (2, 2, 2), (2, 2, 2), (0, 0, 0))
    shape = (1, 2, 4, 4, 4)
    if kind == "max":
        # well-separated distinct values so the window maximum cannot switch
        # within the finite-difference step
        x = (rng.permutation(np.prod(shape)).reshape(shape) * 0.1).astype(np.float64)
    else:
        x = _rand_x(rng, shape)
    proj = _rand_x(rng, tuple(spec.output_shape(Tensor5D(x.astype(np.float32)).shape)))

    def loss(xv):
        y = ops.pool3d(Tensor5D(xv.astype(np.float32)), spec)
        return float((y.data.astype(np.float64) * proj).sum())

    gx = autodiff.pool3d_backward(Tensor5D(x.astype(np.float32)), spec, proj)
    return relative_error(gx, numeric_grad(loss, x))


def _check_relu(rng) -> float:
    x = _rand_x(rng, (1, 3, 2, 3, 3))
    x[np.abs(x) < 0.05] += 0.1  # stay away from the kink
    proj = _rand_x(rng, x.shape)

    def loss(xv):
        return float((np.maximum(xv, 0.0) * proj).sum())

    gx = autodiff.relu_backward(Tensor5D(x.astype(np.float32)), proj)
    return relative_error(gx, numeric_grad(loss, x))


def _check_batchnorm(rng) -> float:
    c = 3
    x = _rand_x(rng, (2, c, 2, 3, 3))
    gamma = _rand_x(rng, c)
    beta = _rand_x(rng, c)
    mean = _rand_x(rng, c) * 0.1
    var = np.abs(_rand_x(rng, c)) + 0.5
    proj = _rand_x(rng, x.shape)

    def params(g=gamma, b=beta):
        return BatchNormParams(g, b, mean, var)

    def loss_x(xv):
        y = ops.batchnorm_infer(Tensor5D(xv.astype(np.float32)), params())
        return float((y.data.astype(np.float64) * proj).sum())

    def loss_g(gv):
        y = ops.batchnorm_infer(Tensor5D(x.astype(np.float32)), params(g=gv))
        return float((y.data.astype(np.float64) * proj).sum())

    def loss_b(bv):
        y = ops.batchnorm_infer(Tensor5D(x.astype(np.float32)), params(b=bv))
        return float((y.data.astype(np.float64) * proj).sum())

    gx, gg, gb = autodiff.batchnorm_backward(
        Tensor5D(x.astype(np.float32)), params(), proj
    )
    return max(
        relative_error(gx, numeric_grad(loss_x, x)),
        relative_error(gg, numeric_grad(loss_g, gamma)),
        relative_error(gb, numeric_grad(loss_b, beta)),
    )


def _check_shuffle(rng) -> float:
    groups, c = 4, 8
    x = _rand_x(rng, (1, c, 2, 2, 2))
    proj = _rand_x(rng, x.shape)

    def loss(xv):
        y = ops.channel_shuffle(Tensor5D(xv.astype(np.float32)), groups)
        return float((y.data.astype(np.float64) * proj).sum())

    gx = autodiff.channel_shuffle_backward(proj, groups, c)
    return relative_error(gx, numeric_grad(loss, x))


def _check_softmax_xent(rng) -> float:
    z = _rand_x(rng, 7)
    label = int(rng.integers(0, 7))

    def loss(zv):
        return autodiff.softmax_xent(zv, label)[0]

    _, grad = autodiff.softmax_xent(z, label)
    return relative_error(grad, numeric_grad(loss, z))


_CHECKS = {
    "conv3d": lambda rng: _check_conv(rng, 1),
    "conv3d_grouped": lambda rng: _check_conv(rng, 2),
    "pool_max": lambda rng: _check_pool(rng, "max"),
    "pool_avg": lambda rng: _check_pool(rng, "avg"),
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
    worst = 0.0
    for k in range(trials):
        rng = np.random.default_rng((seed << 16) + k)
        worst = max(worst, _CHECKS[op](rng))
    return worst
