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

    Both work from the forward's ``ops._time_tiles`` plan, one tile at a
    time, on one patch matrix for the whole batch and every group: ``gw``
    accumulates each clip's stacked ``gmat @ cols.T`` in clip order, and
    one stacked ``w.T @ gmat`` gives the tile's ``gcols``, added into the
    input sites it came from.  A tile's ``cols`` is freed before its
    ``gcols`` exists, and its ``gcols`` before the next tile's ``cols``."""
    gx = np.zeros(x.shape, COMPUTE)
    return gx, _conv_grads(x, spec, weights, gout, gx)


def conv3d_weight_grad(
    x: Tensor5D, spec: Conv3DSpec, weights: np.ndarray, gout: np.ndarray
) -> np.ndarray:
    """``conv3d_backward``'s weight gradient alone, from the same code: no
    ``gcols``, no ``ops._col2im`` and no input-shaped buffer.  ``backward``
    runs it for a conv that reads the graph input, whose gradient nobody
    reads."""
    return _conv_grads(x, spec, weights, gout, None)


def _conv_grads(x: Tensor5D, spec: Conv3DSpec, weights, gout, gx) -> np.ndarray:
    """The weight gradient, tile by tile; each tile's input gradient is added
    into ``gx`` after its weight gradient, unless ``gx`` is None."""
    out_shape = spec.output_shape(x.shape)
    # cast once here: a float32 weight is cast again by every per-clip matmul,
    # which made the train-dense conv backwards 6% slower
    w = np.asarray(weights, dtype=COMPUTE)
    wmat = w.reshape(spec.groups, spec.out_channels // spec.groups, -1)
    g = np.asarray(gout, dtype=COMPUTE).reshape(out_shape)
    gw = np.zeros(wmat.shape, COMPUTE)
    for plan in ops._time_tiles(spec, x.shape):
        # a view, or a copy of the tile's output gradient when it cuts rows
        gmat = g[plan.sites].reshape(x.n, *wmat.shape[:2], -1)
        cols = ops._im2col(x.data, plan).reshape(x.n, spec.groups, wmat.shape[2], -1)
        # clip by clip: one GEMM over the batch would regroup gw's sums
        for i in range(x.n):
            gw += gmat[i] @ cols[i].transpose(0, 2, 1)
        del cols
        if gx is not None:
            gcols = (wmat.transpose(0, 2, 1) @ gmat).reshape(x.n, x.c, -1, *plan.dims)
            ops._col2im(gx, plan, lambda k, r: gcols[:, :, k][r])
            del gcols
    return gw.reshape(w.shape)


def _first_max(src: np.ndarray, plan: ops.TapPlan) -> tuple[np.ndarray, np.ndarray]:
    """The max over one ``ops._axis_plans`` pass's taps of the rows ``src``
    and the first tap that holds it.  A later equal tap never wins, and a
    site with nothing above -inf keeps tap 0."""
    best = np.full((len(src), *plan.dims), -np.inf, dtype=src.dtype)
    arg = np.zeros(best.shape, dtype=np.min_scalar_type(math.prod(plan.kernel) - 1))
    mask = np.empty(best.shape, dtype=bool)
    for k, region, source in plan.taps:
        view, b = src[source], best[region]
        if k:  # arg starts at tap 0
            m = mask[region]
            np.greater(view, b, out=m)  # strict: an equal later tap never wins
            np.copyto(arg[region], k, where=m)
        # fmax skips nan, which never wins; the sign it keeps of a tied
        # zero does not matter, as the passes only compare what it keeps
        np.fmax(b, view, out=b)
    return best, arg


def pool3d_backward(x: Tensor5D, spec: PoolSpec, gout: np.ndarray) -> np.ndarray:
    """Max pooling routes each window's gradient to the first maximal element
    in layout order and skips nan, as ``ops.pool3d`` does: a window of only
    nan or -inf routes to its tap 0, or to no one where that tap is padding.
    Average pooling spreads it over the full kernel volume.

    The max branch works on ``ops._row_blocks`` of the input.  It takes the
    first maximal tap along w, then h, then t: in (t, h, w) order the first
    maximum per axis is the window's first maximum.  One ``np.bincount``
    adds the gradients into their winners in reverse output-site order: a
    later window reads an element through a smaller offset on every axis,
    so each element sums its windows' gradients in tap order, as a per-tap
    pass adds them."""
    out_shape = spec.output_shape(x.shape)
    g = np.asarray(gout, dtype=COMPUTE).reshape(out_shape)
    if spec.kind == "avg":
        gx = np.zeros(x.shape, COMPUTE)
        share = g / math.prod(spec.kernel)
        plan = ops._tap_plan(spec, x.shape[2:], 0, out_shape.t)
        ops._col2im(gx, plan, lambda k, r: share[r])
        return gx
    _, _, t, h, w = x.shape
    _, _, ot, oh, ow = out_shape
    # each output site's input step under tap 0, per axis
    t0 = (np.arange(ot) * spec.stride[0] - spec.padding[0])[:, None, None]
    h0 = (np.arange(oh) * spec.stride[1] - spec.padding[1])[:, None]
    w0 = np.arange(ow) * spec.stride[2] - spec.padding[2]
    padded0 = (t0 < 0) | (h0 < 0) | (w0 < 0)
    along_w, along_h, along_t = ops._axis_plans(spec, x.shape[2:])
    hw_sites, w_sites = np.arange(oh * ow).reshape(oh, ow), np.arange(ow)
    rows, g_rows = x.data.reshape(-1, t, h, w), g.reshape(-1, ot, oh, ow)
    gx = np.empty(x.shape, COMPUTE)
    gx_rows = gx.reshape(len(rows), -1)
    for r in ops._row_blocks(x.data):
        best, w_tap = _first_max(rows[r], along_w)
        best, h_tap = _first_max(best, along_h)
        best, t_tap = _first_max(best, along_t)
        n = len(best)
        # the winner's index into the block's input, built up axis by axis;
        # each partial index gathers the next axis's tap from its pass
        at = t_tap + t0 + (np.arange(n) * t)[:, None, None, None]
        h_tap = np.take(h_tap, at * (oh * ow) + hw_sites, mode="clip")
        at *= h
        at += h0
        at += h_tap
        w_tap = np.take(w_tap, at * ow + w_sites, mode="clip")
        at *= w
        at += w0
        at += w_tap
        at, gr = at.ravel(), g_rows[r].ravel()
        # a window with nothing above -inf keeps tap 0, as a per-tap scan
        # does, and gives its gradient to no one where that tap is padding;
        # the clipped gathers above keep its steps in range until then
        lost = ((best == -np.inf) & padded0).ravel()
        if lost.any():
            at, gr = at[~lost], gr[~lost]
        # reversed, so that each element adds its windows' parts in tap order
        gx_rows[r] = np.bincount(at[::-1], gr[::-1], gx_rows[r].size).reshape(n, -1)
    return gx


def relu_backward(x: Tensor5D, gout: np.ndarray) -> np.ndarray:
    """``gout`` where ``x > 0``, else 0.  ``x`` may be the relu's input or
    its output: ``relu(z) > 0`` holds exactly where ``z > 0`` for every
    float32 ``z``, nan, ±0 and ±inf included, so ``backward`` passes the
    output and a training forward need not keep the input."""
    return np.asarray(gout, dtype=COMPUTE) * (x.data > 0)


def batchnorm_backward(
    x: Tensor5D, gamma, mean, var, gout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients with frozen mean/variance: input, gamma, beta.  ``xhat``
    is built, multiplied by the gradient and summed in one float64 buffer,
    so the call holds two input-sized temporaries, that and ``gx``."""
    gamma, mean, var = (np.asarray(v, dtype=COMPUTE) for v in (gamma, mean, var))
    g = np.asarray(gout, dtype=COMPUTE).reshape(x.data.shape)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    gx = g * (gamma * inv).reshape(1, -1, 1, 1, 1)
    xhat = np.subtract(x.data, mean.reshape(1, -1, 1, 1, 1), dtype=COMPUTE)
    xhat *= inv.reshape(1, -1, 1, 1, 1)
    xhat *= g
    ggamma = xhat.sum(axis=(0, 2, 3, 4))
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


def _conv_weight_backward(layer: LayerSpec, p: NetworkParams, xs, gout, step) -> list:
    """``_conv_backward`` of a conv that reads the graph input: it steps the
    weights and returns no input gradient."""
    step(p.conv[layer.id], conv3d_weight_grad(xs[0], layer.params, p.conv[layer.id].value, gout))
    return []


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
# xs, gout, step) -> one gradient per input; conv and bn also hand each of
# their parameter gradients to ``step``).  A backward's ``xs`` is what it reads
# (``ModuleGraph.train_keep``): conv, bn and pool get their inputs, relu its
# own output, and shuffle, split and concat their inputs' shapes, of which they
# use only the channel counts.  Each entry looks its op up
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
    Run once right after ``init_params``; statistics stay fixed afterwards.
    The forward folds chains, so the hook runs each chain's conv, bn and relu
    from ``KINDS`` itself (never ``run``): every bn needs its input's moments."""

    def around(layer: LayerSpec, xs: list[Tensor5D], run) -> Tensor5D:
        for l in [layer, *map(g.layer, g.chains.get(layer.id, ()))]:
            if l.kind == "bn":
                st, d = p.bn[l.id], xs[0].data.astype(COMPUTE)
                st.mean = d.mean(axis=(0, 2, 3, 4)).astype(np.float32)
                # floor keeps 1/sqrt(var) from amplifying noise channels
                st.var = np.maximum(d.var(axis=(0, 2, 3, 4)), 1e-2).astype(np.float32)
                del d  # freed before the bn's own temporaries exist
            y = KINDS[l.kind][0](l, p, xs)
            s = float(y.data.std()) if l.kind == "conv" else 0.0
            if s > 1e-8:
                par = p.conv[l.id]
                par.value = (par.value / s).astype(np.float32)
                y = Tensor5D(y.data / np.float32(s))
            xs = [y]
        return y

    forward(g, p, x, around=around, keep=())


def _conv_bn_relu(layer: LayerSpec, p: NetworkParams, st: BnState, xs) -> Tensor5D:
    """A conv, its frozen bn and its relu as one conv: the bn scale
    ``gamma / sqrt(var + BN_EPS)`` folds into the weights, and the bn shift
    and the relu run in place on the conv's fresh float32 output."""
    scale = st.gamma.value / np.sqrt(np.asarray(st.var, COMPUTE) + BN_EPS)
    folded = p.conv[layer.id].value * scale.reshape(-1, 1, 1, 1, 1)
    y = ops.conv3d_lowered(xs[0], layer.params, folded, tag=layer.id)
    d = y.data
    d += (st.beta.value - st.mean * scale).astype(np.float32).reshape(1, -1, 1, 1, 1)
    np.maximum(d, np.float32(0.0), out=d)
    return y


def forward(
    g: ModuleGraph, p: NetworkParams, x: Tensor5D, around=None, keep=None
) -> dict[str, Tensor5D]:
    """Run the graph, returning the activations keyed by layer id.

    ``keep=None`` runs every layer and keeps every activation.  Any other
    collection of ids keeps only those and the output, drops every other
    activation once its last reader has run (``g.frees``) and runs each
    ``g.chains`` conv -> bn -> relu whose conv and bn ids are not kept as one
    conv (``_conv_bn_relu``) stored under the relu's id.  Training keeps
    ``g.train_keep``, what ``backward`` reads: every conv id is in it, so no
    chain folds, and each chain's bn output goes once its relu has run.
    With ``around``, each executed step's activation is ``around(layer,
    inputs, run)``, where ``run()`` computes it; a folded chain is one step of
    its conv, whose ``run()`` yields the relu output (``g.chains[layer.id]``
    names the bn and the relu).

    The input is held only in ``acts``, so with ``keep`` given it is dropped
    after its last reader like any other activation.  Its memory goes then
    unless the caller still holds it.  A temporary, as in ``forward(g, p,
    sample(...), keep=...)``, has no other holder on CPython 3.11 and
    later, which moves call arguments into the callee's frame."""
    chains = {}
    if keep is not None:
        chains = {c: ids for c, ids in g.chains.items() if c not in keep and ids[0] not in keep}
    folded = {lid for ids in chains.values() for lid in ids}  # run by their conv
    acts = {layer.id: x for layer in g.layers if layer.kind == "input"}
    del x  # acts holds the input alone, so g.frees can drop it
    for layer in g.layers:
        if layer.kind != "input" and layer.id not in folded:
            xs = [_resolve(acts, g, r) for r in layer.inputs]
            target, run = layer.id, partial(KINDS[layer.kind][0], layer, p, xs)
            if layer.id in chains:  # a folded conv stores its relu's output
                bn, target = chains[layer.id]
                run = partial(_conv_bn_relu, layer, p, p.bn[bn], xs)
            acts[target] = run() if around is None else around(layer, xs, run)
            del xs, run  # they would hold the inputs dropped below
        if keep is not None:
            for lid in g.frees[layer.id]:
                if lid not in keep:
                    acts.pop(lid, None)  # a folded conv or bn has no entry
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
    computed the gradient and read the parameter for the last time.  Nobody
    reads the input's gradient, so none is computed: a conv that reads the
    input runs ``conv3d_weight_grad``, and nothing is added into an
    input-shaped buffer.

    ``backward`` consumes ``acts``: it reads only ``g.train_keep`` and pops
    each of those after its last backward reader (``g.back_frees``), so
    after a training forward only the output is left.  The other
    activations of a ``keep=None`` forward stay until the caller drops
    ``acts``.  Gradient buffers take their shapes from ``g.shapes`` at the
    batch's size.

    The loss gradient is seeded directly at the classifier logits by
    ``site_xent``: differentiating through the stored float32 softmax
    activation underflows to an exact zero gradient once the softmax
    saturates, which would strand training with no way back."""
    out_layer = g.layer(g.output_id)
    if out_layer.kind != "softmax":
        raise ValueError("graph must end in a softmax layer")
    logits_ref = out_layer.inputs[0]
    loss, seed = site_xent(_resolve(acts, g, logits_ref).data, np.asarray(labels))
    n = len(seed)
    grads: dict[str, np.ndarray] = {}
    inputs = {layer.id for layer in g.layers if layer.kind == "input"}

    def shape(ref: str) -> Shape5:
        base, channels = g.ports[ref]
        s = g.shapes[base]
        return s._replace(n=n, c=len(range(s.c)[channels]))

    def add_to(ref: str, val: np.ndarray):
        base, channels = g.ports[ref]
        if base in inputs:  # nobody reads the input's gradient
            return
        if base not in grads:
            grads[base] = np.zeros(tuple(g.shapes[base]._replace(n=n)), dtype=COMPUTE)
        grads[base][:, channels] += val

    add_to(logits_ref, seed)
    for layer in reversed(g.layers):  # the softmax's entry frees the logits
        if layer.id in grads:
            if layer.kind == "relu":
                xs = [acts[layer.id]]
            elif layer.kind in ("conv", "bn", "pool"):
                xs = [_resolve(acts, g, r) for r in layer.inputs]
            else:
                xs = [shape(r) for r in layer.inputs]
            back = KINDS[layer.kind][1]
            if layer.kind == "conv" and g.ports[layer.inputs[0]][0] in inputs:
                back = _conv_weight_backward
            for ref, gx in zip(layer.inputs, back(layer, p, xs, grads.pop(layer.id), step)):
                add_to(ref, gx)
            del xs  # it would hold the activations popped below
        for lid in g.back_frees[layer.id]:
            del acts[lid]
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
    ``grad`` is clipped in place, the momentum starts at zero, and a
    non-finite norm raises ``FloatingPointError`` before any update."""
    norm = float(np.linalg.norm(grad))
    if not math.isfinite(norm):
        raise FloatingPointError("a gradient is not finite")
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
    ``MIN_IMPROVEMENT`` for ``plateau_patience`` consecutive epochs.  A
    non-finite loss or gradient raises a ValueError naming epoch and step.
    Each step's forward keeps only ``g.train_keep``, what ``backward``
    reads, and ``backward`` leaves the output, from which the step's
    accuracy is counted."""
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
        for step, start in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            xb = Tensor5D(np.concatenate([dataset[i][0].data for i in idx], axis=0))
            yb = np.array([dataset[i][1] for i in idx])
            with np.errstate(all="ignore"):  # a diverged step overflows; the check names it
                acts = forward(g, params, xb, keep=g.train_keep)
                try:
                    # looked up per step, so a wrapper swapped in at autodiff.sgd_step runs
                    loss = backward(g, params, acts, yb, partial(sgd_step, lr=lr))
                except FloatingPointError:  # a gradient norm sgd_step found not finite
                    loss = math.nan
            if not math.isfinite(loss):
                raise ValueError(f"training diverged at epoch {epoch}, step {step}: "
                                 "non-finite loss or gradient")
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
