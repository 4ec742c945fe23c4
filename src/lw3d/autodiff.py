"""Reverse-mode gradients for the operator set and a small SGD trainer.

Gradients are computed per operator (each backward function is usable and
testable on its own) and chained over a ``ModuleGraph`` in reverse
topological order; each parameter tensor's gradient goes to the caller's
``step`` as soon as it is final, so no whole-network gradient is held.
Batch norm runs with frozen statistics: scale and shift learn, mean and
variance stay at their initial values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import ops, tensor
from .graph import LayerSpec, ModuleGraph, parameterized_layers
from .ops import BN_EPS, COMPUTE, Conv3DSpec, PoolSpec
from .tensor import Shape5, Tensor5D


# ---------------------------------------------------------------------------
# per-operator backward functions
# ---------------------------------------------------------------------------

def conv3d_backward(
    x: Tensor5D, spec: Conv3DSpec, weights: np.ndarray, gout: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Input and weight gradients of the bias-free convolution.

    Both are 2-D GEMMs against one clip's patch matrix, one
    ``ops._time_tiles`` tile at a time: ``gw`` accumulates each tile's
    ``gmat @ cols.T`` and each tile's ``gcols`` is added into the input
    t-range it came from, so only one tile's ``cols`` and ``gcols`` are
    alive at once."""
    out_shape = spec.output_shape(x.shape)
    # cast once here: a float32 weight is cast again by every per-clip matmul,
    # which made the train-dense conv backwards 6% slower
    w = np.asarray(weights, dtype=COMPUTE)
    g = np.asarray(gout, dtype=COMPUTE).reshape(out_shape)
    xp = ops._pad_input(x.data, spec.padding)
    cg = spec.in_channels // spec.groups
    og = spec.out_channels // spec.groups
    out_dims = (out_shape.t, out_shape.h, out_shape.w)
    kcols = cg * math.prod(spec.kernel)
    # per output site, the workspace is a column of cols and of gcols and a
    # gmat copy
    tiles = ops._time_tiles(spec, out_dims, 2 * kcols + og)
    gxp = np.zeros(xp.shape, COMPUTE)
    gw = np.zeros((spec.out_channels, kcols), COMPUTE)
    for gi in range(spec.groups):
        cs, os_ = slice(gi * cg, (gi + 1) * cg), slice(gi * og, (gi + 1) * og)
        wmat = w[os_].reshape(og, -1)
        for i in range(x.n):
            for ts, xs, dims in tiles:
                cols = ops._im2col(xp[i : i + 1, cs, xs], spec.kernel, dims, spec.stride)[0]
                gmat = g[i, os_, ts].reshape(og, -1)
                gw[os_] += gmat @ cols.T
                gcols = (wmat.T @ gmat).reshape(1, cg, -1, *dims)
                ops._col2im(
                    gxp[i : i + 1, cs, xs], lambda k: gcols[:, :, k], spec.kernel, dims, spec.stride
                )
    return _unpad(gxp, spec.padding), gw.reshape(w.shape)


def _unpad(xp: np.ndarray, padding) -> np.ndarray:
    return xp[(..., *(slice(p, -p or None) for p in padding))]


def pool3d_backward(x: Tensor5D, spec: PoolSpec, gout: np.ndarray) -> np.ndarray:
    """Max pooling routes each window's gradient to the first maximal element
    in layout order; average pooling spreads it over the full kernel volume."""
    out_shape = spec.output_shape(x.shape)
    g = np.asarray(gout, dtype=COMPUTE).reshape(out_shape)
    out_dims = (out_shape.t, out_shape.h, out_shape.w)
    xp = ops._pad_input(x.data, spec.padding, value=-np.inf)
    gxp = np.zeros(xp.shape, COMPUTE)
    if spec.kind == "avg":
        share = g / math.prod(spec.kernel)
        ops._col2im(gxp, lambda k: share, spec.kernel, out_dims, spec.stride)
        return _unpad(gxp, spec.padding)
    best = np.full(out_shape, -np.inf, dtype=xp.dtype)
    # the smallest unsigned dtype that holds every tap index
    best_k = np.zeros(out_shape, dtype=np.min_scalar_type(math.prod(spec.kernel) - 1))
    mask = np.empty(out_shape, dtype=bool)
    for k, tap in enumerate(ops._taps(spec.kernel)):
        view = ops._offset_view(xp, tap, out_dims, spec.stride)
        np.greater(view, best, out=mask)  # strict: an equal later tap never wins
        np.copyto(best, view, where=mask)
        np.copyto(best_k, k, where=mask)
    ops._col2im(
        gxp, lambda k: np.where(best_k == k, g, 0.0), spec.kernel, out_dims, spec.stride
    )
    return _unpad(gxp, spec.padding)


def relu_backward(x: Tensor5D, gout: np.ndarray) -> np.ndarray:
    return np.asarray(gout, dtype=COMPUTE) * (x.data > 0)


def batchnorm_backward(
    x: Tensor5D, gamma, mean, var, gout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients with frozen mean/variance: input, gamma, beta."""
    gamma, mean, var = (np.asarray(v, dtype=COMPUTE) for v in (gamma, mean, var))
    g = np.asarray(gout, dtype=COMPUTE).reshape(x.data.shape)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean.reshape(1, -1, 1, 1, 1)) * inv.reshape(1, -1, 1, 1, 1)
    gx = g * (gamma * inv).reshape(1, -1, 1, 1, 1)
    ggamma = (g * xhat).sum(axis=(0, 2, 3, 4))
    gbeta = g.sum(axis=(0, 2, 3, 4))
    return gx, ggamma, gbeta


def channel_shuffle_backward(gout: np.ndarray, groups: int, channels: int) -> np.ndarray:
    """Transpose of the shuffle permutation: shuffle with c/groups groups,
    done in the compute dtype so the gradient is permuted exactly."""
    g = np.asarray(gout, dtype=COMPUTE)
    per = channels // groups
    return g.reshape(g.shape[0], per, groups, *g.shape[2:]).swapaxes(1, 2).reshape(g.shape)


def site_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """The training loss and its gradient at the classifier logits.

    Each clip's loss is the cross-entropy of its softmax scores averaged
    over the logits' sites, ``-log(mean_site p(label))``, taken in fused
    log-mean-exp form; the loss is the mean over the batch."""
    z = np.asarray(logits, dtype=COMPUTE)
    n, nc = z.shape[:2]
    sites = z.shape[2] * z.shape[3] * z.shape[4]
    zz = z.reshape(n, nc, sites)
    logsm = zz - zz.max(axis=1, keepdims=True)
    logsm -= np.log(np.exp(logsm).sum(axis=1, keepdims=True))  # log softmax
    ly = logsm[np.arange(n), labels]  # (n, sites) log p(label) per site
    m = ly.max(axis=1, keepdims=True)
    sexp = np.exp(ly - m).sum(axis=1, keepdims=True)
    # loss_i = -log(mean_site p(label)); r = each site's share of that mean
    loss = float(-(m[:, 0] + np.log(sexp[:, 0]) - math.log(sites)).mean())
    r = np.exp(ly - m) / sexp  # (n, sites), rows sum to 1
    gz = np.exp(logsm) * r[:, None, :]
    gz[np.arange(n), labels] -= r
    return loss, (gz / n).reshape(z.shape)


# ---------------------------------------------------------------------------
# parameters and the graph executor
# ---------------------------------------------------------------------------

@dataclass
class Parameter:
    """A float32 value and its SGD momentum, which stays ``None`` until the
    tensor's first ``sgd_step``, so inference holds no optimizer state."""

    value: np.ndarray
    momentum: np.ndarray | None = None

    @classmethod
    def of(cls, value: np.ndarray) -> "Parameter":
        return cls(np.asarray(value, dtype=np.float32))


@dataclass
class BnState:
    gamma: Parameter
    beta: Parameter
    mean: np.ndarray
    var: np.ndarray


@dataclass
class NetworkParams:
    conv: dict[str, Parameter] = field(default_factory=dict)
    bn: dict[str, BnState] = field(default_factory=dict)


def init_params(g: ModuleGraph, seed: int = 0) -> NetworkParams:
    rng = np.random.default_rng(seed)
    p = NetworkParams()
    for layer in parameterized_layers(g):
        if layer.kind == "conv":
            p.conv[layer.id] = Parameter.of(ops.glorot_uniform(layer.params, rng))
        else:
            c = layer.params
            p.bn[layer.id] = BnState(
                Parameter.of(np.ones(c)), Parameter.of(np.zeros(c)),
                np.zeros(c, np.float32), np.ones(c, np.float32),
            )
    return p


def save_weights(path, g: ModuleGraph, p: NetworkParams) -> None:
    """Concatenated tensor records, one per layer in ``parameterized_layers``
    order; bn layers store (gamma, beta, mean, var) stacked on the first axis."""
    with open(path, "wb") as f:
        for layer in parameterized_layers(g):
            if layer.kind == "conv":
                rec = p.conv[layer.id].value
            else:
                s = p.bn[layer.id]
                rec = np.stack([s.gamma.value, s.beta.value, s.mean, s.var])
            tensor.write_record(f, Tensor5D(rec.reshape(_record_shape(layer))))


def load_weights(path, g: ModuleGraph) -> NetworkParams:
    """Read a weight file back, validating every record against the graph
    (shape, finite values, nonnegative bn variance); errors name the file and
    the first offending layer."""
    p = NetworkParams()
    with open(path, "rb") as f:
        for layer in parameterized_layers(g):
            label = f"{path}: layer {layer.id!r}"
            data = tensor.read_record(f, label).data
            if data.shape != _record_shape(layer):
                raise ValueError(
                    f"{label}: {layer.kind} record {data.shape} "
                    f"!= expected {_record_shape(layer)}"
                )
            if not np.isfinite(data).all():
                raise ValueError(f"{label}: {layer.kind} record holds a non-finite value")
            if layer.kind == "conv":
                p.conv[layer.id] = Parameter.of(data)
            else:
                rows = data.reshape(4, layer.params)
                if (rows[3] < 0).any():
                    raise ValueError(f"{label}: bn variance row holds a negative value")
                p.bn[layer.id] = BnState(
                    Parameter.of(rows[0]), Parameter.of(rows[1]),
                    rows[2].copy(), rows[3].copy(),
                )
        if f.read(1):
            raise ValueError(f"{path}: trailing records beyond the last layer")
    return p


def _record_shape(layer: LayerSpec) -> tuple[int, ...]:
    if layer.kind == "conv":
        return layer.params.weight_shape
    return (4, layer.params, 1, 1, 1)


def _resolve(acts: dict[str, Tensor5D], g: ModuleGraph, ref: str) -> Tensor5D:
    base, channels = g.ports[ref]
    x = acts[base]
    return x if channels == slice(None) else Tensor5D(x.data[:, channels])


def _conv_backward(layer: LayerSpec, p: NetworkParams, xs, gout, step) -> list[np.ndarray]:
    gx, gw = conv3d_backward(xs[0], layer.params, p.conv[layer.id].value, gout)
    step(p.conv[layer.id], gw)
    return [gx]


def _bn_forward(layer: LayerSpec, p: NetworkParams, xs) -> Tensor5D:
    st = p.bn[layer.id]
    return ops.batchnorm_infer(xs[0], st.gamma.value, st.beta.value, st.mean, st.var)


def _bn_backward(layer: LayerSpec, p: NetworkParams, xs, gout, step) -> list[np.ndarray]:
    st = p.bn[layer.id]
    gx, ggamma, gbeta = batchnorm_backward(xs[0], st.gamma.value, st.mean, st.var, gout)
    step(st.gamma, ggamma)
    step(st.beta, gbeta)
    return [gx]


# kind -> (forward(layer, params, inputs) -> activation, backward(layer, params,
# inputs, gout, step) -> one gradient per input; conv and bn also hand each of
# their parameter gradients to ``step``).  Each entry looks its op up
# when called, so a function swapped in at its module attribute (a tracer, the
# conv3d_direct oracle) runs.  softmax has no backward: the loss seeds its input.
KINDS = {
    "conv": (
        lambda l, p, xs: ops.conv3d_lowered(xs[0], l.params, p.conv[l.id].value, tag=l.id),
        _conv_backward,
    ),
    "pool": (
        lambda l, p, xs: ops.pool3d(xs[0], l.params),
        lambda l, p, xs, g, _: [pool3d_backward(xs[0], l.params, g)],
    ),
    "bn": (_bn_forward, _bn_backward),
    "relu": (lambda l, p, xs: tensor.relu(xs[0]), lambda l, p, xs, g, _: [relu_backward(xs[0], g)]),
    "shuffle": (
        lambda l, p, xs: ops.channel_shuffle(xs[0], l.params),
        lambda l, p, xs, g, _: [channel_shuffle_backward(g, l.params, xs[0].c)],
    ),
    "split": (lambda l, p, xs: xs[0], lambda l, p, xs, g, _: [g]),  # slices made on demand
    "concat": (
        lambda l, p, xs: tensor.concat_channels(xs),
        lambda l, p, xs, g, _: np.split(g, np.cumsum([x.c for x in xs[:-1]]), axis=1),
    ),
    "softmax": (lambda l, p, xs: ops.softmax_channels(xs[0]), None),
}


def calibrate_init(g: ModuleGraph, p: NetworkParams, x: Tensor5D) -> None:
    """Data-driven rescale of a freshly initialized network.

    Glorot-initialized activations shrink as depth grows, leaving the
    classifier with vanishing logits.  One probe pass rescales each
    convolution's weights to unit output deviation and points each
    batch-norm layer's frozen statistics at the empirical moments of its
    input, so both activations and gradients stay at usable scale.
    Run once right after ``init_params``; statistics stay fixed afterwards."""

    def around(layer: LayerSpec, xs: list[Tensor5D], run) -> Tensor5D:
        if layer.kind == "bn":
            st, d = p.bn[layer.id], xs[0].data.astype(COMPUTE)
            st.mean = d.mean(axis=(0, 2, 3, 4)).astype(np.float32)
            # floor keeps 1/sqrt(var) from amplifying noise channels
            st.var = np.maximum(d.var(axis=(0, 2, 3, 4)), 1e-2).astype(np.float32)
        y = run()
        s = float(y.data.std()) if layer.kind == "conv" else 0.0
        if s > 1e-8:
            par = p.conv[layer.id]
            par.value = (par.value / s).astype(np.float32)
            y = Tensor5D(y.data / np.float32(s))
        return y

    forward(g, p, x, around=around, keep=())


def forward(
    g: ModuleGraph, p: NetworkParams, x: Tensor5D, around=None, keep=None
) -> dict[str, Tensor5D]:
    """Run the graph, returning the activations keyed by layer id.  With
    ``around``, each non-input activation is ``around(layer, inputs, run)``,
    where ``run()`` computes it from the layer's ``KINDS`` entry.

    ``keep=None`` keeps every activation, which ``backward`` reads.  Any other
    collection of ids keeps only those and the output: every other activation
    is dropped as soon as the last layer reading it has run (``g.frees``)."""
    acts = {}
    for layer in g.layers:
        if layer.kind == "input":
            acts[layer.id] = x
        else:
            xs = [_resolve(acts, g, r) for r in layer.inputs]
            run = partial(KINDS[layer.kind][0], layer, p, xs)
            acts[layer.id] = run() if around is None else around(layer, xs, run)
            del xs, run  # they would hold the inputs dropped below
        if keep is not None:
            for lid in g.frees[layer.id]:
                if lid not in keep:
                    del acts[lid]
    return acts


def predict_scores(g: ModuleGraph, acts: dict[str, Tensor5D]) -> np.ndarray:
    """Per-clip class scores: softmax output averaged over remaining sites."""
    y = acts[g.output_id].data.astype(COMPUTE)
    return y.mean(axis=(2, 3, 4))


def backward(
    g: ModuleGraph,
    p: NetworkParams,
    acts: dict[str, Tensor5D],
    labels: np.ndarray,
    step,
) -> float:
    """Cross-entropy loss of the averaged softmax scores; returns the mean
    loss.  Each parameter tensor the loss reaches gets one ``step(param,
    grad)`` call, in reverse layer order, once its layer's backward has
    computed the gradient and read the parameter for the last time.

    The loss gradient is seeded directly at the classifier logits by
    ``site_xent``: differentiating through the stored float32 softmax
    activation underflows to an exact zero gradient once the softmax
    saturates, which would strand training with no way back."""
    out_layer = g.layer(g.output_id)
    if out_layer.kind != "softmax":
        raise ValueError("graph must end in a softmax layer")
    logits_ref = out_layer.inputs[0]
    loss, seed = site_xent(_resolve(acts, g, logits_ref).data, np.asarray(labels))
    grads: dict[str, np.ndarray] = {}

    def add_to(ref: str, val: np.ndarray):
        base, channels = g.ports[ref]
        if base not in grads:
            grads[base] = np.zeros(tuple(acts[base].shape), dtype=COMPUTE)
        grads[base][:, channels] += val

    add_to(logits_ref, seed)
    for layer in reversed(g.layers):
        if layer.kind == "input" or layer.id not in grads:
            continue
        xs = [_resolve(acts, g, r) for r in layer.inputs]
        back = KINDS[layer.kind][1]
        for ref, gx in zip(layer.inputs, back(layer, p, xs, grads.pop(layer.id), step)):
            add_to(ref, gx)
    return loss


# ---------------------------------------------------------------------------
# SGD with momentum and plateau decay
# ---------------------------------------------------------------------------

MOMENTUM = 0.9
LR_DECAY_FACTOR = 10.0
MIN_IMPROVEMENT = 1e-3  # the least epoch-loss fall that resets the plateau count
# gradient norms vary over orders of magnitude between the stem and the
# classifier; clipping each tensor's gradient keeps one lr usable for all
GRAD_CLIP = 1.0


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 4
    epochs: int = 50
    plateau_patience: int = 5

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.plateau_patience < 1:
            raise ValueError(f"plateau patience must be at least 1, got {self.plateau_patience}")


def sgd_step(p: Parameter, grad: np.ndarray, lr: float) -> None:
    """One tensor's update: g <- clip(g); v <- MOMENTUM*v + g; w <- w - lr*v.
    ``grad`` is clipped in place; the momentum starts at zero."""
    norm = float(np.linalg.norm(grad))
    if norm > GRAD_CLIP:
        grad *= GRAD_CLIP / norm
    if p.momentum is None:
        p.momentum = np.zeros(p.value.shape, COMPUTE)
    p.momentum *= MOMENTUM
    p.momentum += grad
    p.value = (p.value - lr * p.momentum).astype(np.float32)


def train_toy(
    g: ModuleGraph,
    dataset: list[tuple[Tensor5D, int]],
    cfg: TrainConfig,
    seed: int = 0,
) -> tuple[list[dict], NetworkParams]:
    """Train on an in-memory dataset; the learning rate divides by
    ``LR_DECAY_FACTOR`` whenever the epoch loss fails to improve by
    ``MIN_IMPROVEMENT`` for ``plateau_patience`` consecutive epochs."""
    if not dataset:
        raise ValueError("empty dataset")
    if g.num_classes is not None:
        for _, label in dataset:
            if not 0 <= label < g.num_classes:
                raise ValueError(f"label {label} out of range")
    lr = cfg.learning_rate
    rng = np.random.default_rng(seed)
    params = init_params(g, seed)
    # probe must span the whole dataset (e.g. every class), otherwise the
    # calibrated scales only hold on the directions the probe exercises
    take = np.linspace(0, len(dataset) - 1, min(len(dataset), 16)).astype(int)
    calibrate_init(
        g, params, Tensor5D(np.concatenate([dataset[i][0].data for i in take], axis=0))
    )
    history: list[dict] = []
    best = math.inf
    stale = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        losses, hits = [], 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = Tensor5D(np.concatenate([dataset[i][0].data for i in idx], axis=0))
            yb = np.array([dataset[i][1] for i in idx])
            acts = forward(g, params, xb)
            # looked up per step, so a wrapper swapped in at autodiff.sgd_step runs
            loss = backward(g, params, acts, yb, partial(sgd_step, lr=lr))
            hits += int((predict_scores(g, acts).argmax(axis=1) == yb).sum())
            losses.append(loss * len(idx))
        epoch_loss = sum(losses) / len(dataset)
        acc = hits / len(dataset)
        history.append(
            {"epoch": epoch, "loss": epoch_loss, "accuracy": acc, "lr": lr}
        )
        if epoch_loss < best - MIN_IMPROVEMENT:
            best = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= cfg.plateau_patience:
                lr /= LR_DECAY_FACTOR
                stale = 0
    return history, params
