"""Span tracer for lw3d, installed from outside the package.

``Tracer.install`` swaps every public function of the lw3d modules for a
timing wrapper at each module attribute that holds it.  That is where
callers look them up: ``autodiff`` calls ``ops.*`` and ``tensor.*`` as module
attributes and its own ``forward``, ``conv3d_backward`` and the rest as
globals.  Spans (name, parent, start, end) stay in memory and are written
when the run ends.  Two private helpers get counting wrappers without a
span: ``ops._im2col`` (patch-matrix bytes) and ``autodiff._resolve`` (the
slice of a split that is actually used).

The traced run also performs the exact MAC check: every
``ops.conv3d_lowered`` call without a counter gets an ``ops.MacCounter``,
and each conv layer's counted MACs must equal the static FLOPs ``analysis``
gives that layer times the samples that went through ``autodiff.forward``.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

from lw3d import analysis, autodiff, graph, ops

MODULES = ("cli", "graph", "analysis", "ops", "tensor", "autodiff", "dataio", "fusion")
CONV_CLASSES = ("pw", "sp", "tp", "full")

RENAMES = {
    "ops.batchnorm_infer": "ops.bn_fwd",
    "ops.channel_shuffle": "ops.shuffle",
    "ops.softmax_channels": "ops.softmax",
    "tensor.concat_channels": "tensor.concat",
    "tensor.split_channels": "tensor.split",
    "tensor.load_tensor": "tensor.load",
    "autodiff.batchnorm_backward": "autodiff.bn_bwd",
    "autodiff.relu_backward": "autodiff.relu_bwd",
    "autodiff.channel_shuffle_backward": "autodiff.shuffle_bwd",
}


def conv_class(kernel) -> str:
    """pw is 1x1x1, sp is 1xkxk, tp is kx1x1, full is everything else."""
    kt, kh, kw = kernel
    if kt == kh == kw == 1:
        return "pw"
    if kt == 1:
        return "sp"
    if kh == kw == 1:
        return "tp"
    return "full"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.retained_peak = 0
        # exact MAC check: graphs seen by forward, samples through each, and
        # MACs counted per (graph, conv layer id)
        self._graphs: dict[int, graph.ModuleGraph] = {}
        self._samples: defaultdict[int, int] = defaultdict(int)
        self._macs: defaultdict[tuple[int, str], int] = defaultdict(int)
        self._running_graph: list[graph.ModuleGraph] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, f):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return f(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _pool(self, prefix: str, f):
        """A span named after the pooling kind of the call's spec."""

        def wrapper(x, spec, *args):
            idx = self._open(prefix + spec.kind)
            try:
                return f(x, spec, *args)
            finally:
                self._close(idx)

        return wrapper

    # -- wrappers that also count --------------------------------------------

    def _conv_fwd(self, f):
        def wrapper(x, spec, weights, counter=None, tag=None):
            if counter is None:
                counter = ops.MacCounter()
            before = counter.macs
            name = "ops.conv_fwd." + conv_class(spec.kernel)
            idx = self._open(name)
            try:
                y = f(x, spec, weights, counter, tag)
            finally:
                self._close(idx)
            macs = counter.macs - before
            self.counts[name + ".macs"] += macs
            if self._running_graph and tag is not None:
                self._macs[(id(self._running_graph[-1]), tag)] += macs
            return y

        return wrapper

    def _conv_bwd(self, f):
        def wrapper(x, spec, weights, gout):
            name = "autodiff.conv_bwd." + conv_class(spec.kernel)
            idx = self._open(name)
            try:
                out = f(x, spec, weights, gout)
            finally:
                self._close(idx)
            # weight-gradient and input-gradient products, each as large as
            # the forward convolution
            fwd = spec.output_shape(x.shape).size * (
                spec.in_channels // spec.groups
            ) * math.prod(spec.kernel)
            self.counts[name + ".macs"] += 2 * fwd
            return out

        return wrapper

    def _im2col(self, f):
        def wrapper(*args, **kwargs):
            cols = f(*args, **kwargs)
            if self._stack:
                parent = self.names[self._stack[-1]]
                if parent.startswith("ops.conv_fwd."):
                    self.counts[parent + ".im2col_bytes"] += cols.nbytes
            return cols

        return wrapper

    def _forward(self, f):
        def wrapper(g, p, x, *args, **kwargs):
            self._graphs[id(g)] = g
            self._samples[id(g)] += x.n
            self._running_graph.append(g)
            idx = self._open("autodiff.forward")
            try:
                acts = f(g, p, x, *args, **kwargs)
            finally:
                self._close(idx)
                self._running_graph.pop()
            held = {id(t.data): t.data.nbytes for t in acts.values()}
            self.retained_peak = max(self.retained_peak, sum(held.values()))
            return acts

        return wrapper

    def _resolve(self, f):
        def wrapper(acts, g, ref):
            y = f(acts, g, ref)
            if ":" in ref:
                self.counts["tensor.split.useful_bytes"] += y.data.nbytes
            return y

        return wrapper

    def _split(self, f):
        span = self._span("tensor.split", f)

        def wrapper(*args, **kwargs):
            parts = span(*args, **kwargs)
            self.counts["tensor.split.bytes_copied"] += sum(p.data.nbytes for p in parts)
            return parts

        return wrapper

    def _load(self, f):
        span = self._span("tensor.load", f)

        def wrapper(*args, **kwargs):
            x = span(*args, **kwargs)
            self.counts["tensor.load.bytes"] += x.data.nbytes
            return x

        return wrapper

    def _wrapper_for(self, qualname: str, f):
        special = {
            "ops.conv3d_lowered": self._conv_fwd,
            "autodiff.conv3d_backward": self._conv_bwd,
            "autodiff.forward": self._forward,
            "tensor.split_channels": self._split,
            "tensor.load_tensor": self._load,
        }
        if qualname in special:
            return special[qualname](f)
        if qualname == "ops.pool3d":
            return self._pool("ops.pool_fwd.", f)
        if qualname == "autodiff.pool3d_backward":
            return self._pool("autodiff.pool_bwd.", f)
        return self._span(RENAMES.get(qualname, qualname), f)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            mod = sys.modules["lw3d." + short]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrapper_for(f"{short}.{attr}", obj)
        wrappers[ops._im2col] = self._im2col(ops._im2col)
        wrappers[autodiff._resolve] = self._resolve(autodiff._resolve)
        # patch every lw3d module attribute holding a wrapped function, which
        # covers names imported with ``from .x import f``
        for name, mod in list(sys.modules.items()):
            if name != "lw3d" and not name.startswith("lw3d."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def totals(self, lo: int, hi: int) -> dict[str, list[float]]:
        """Per span name over spans [lo, hi): [total s, self s, calls]."""
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for i in range(lo, hi):
            dur = self.ends[i] - self.starts[i]
            row = out[self.names[i]]
            row[0] += dur
            row[1] += dur - child[i]
            row[2] += 1
        return out

    def mac_check(self) -> tuple[int, list[str]]:
        """Conv layers checked, and a message per layer whose counted MACs
        differ from its static FLOPs times the samples forwarded."""
        checked, bad = 0, []
        for gid, g in self._graphs.items():
            shapes = graph.infer_shapes(g)
            for layer in g.layers:
                if layer.kind != "conv":
                    continue
                checked += 1
                want = analysis._layer_flops(layer, shapes[layer.id]) * self._samples[gid]
                got = self._macs[(gid, layer.id)]
                if got != want:
                    bad.append(f"{g.arch} {layer.id}: counted {got} MACs, analysis {want}")
        return checked, bad

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                f.write(
                    f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [
        (f"ops.conv_fwd.{c}.{m}", unit, better)
        for c in CONV_CLASSES
        for m, unit, better in (
            ("s", "s", "lower"),
            ("macs", "count", "lower"),
            ("gmacps", "GMAC/s", "higher"),
            ("im2col_bytes", "B", "lower"),
        )
    ]
    + [
        (f"ops.{k}.s", "s", "lower")
        for k in ("bn_fwd", "pool_fwd.max", "pool_fwd.avg", "shuffle", "softmax")
    ]
    + [(f"tensor.{k}.s", "s", "lower") for k in ("relu", "concat", "split", "load")]
    + [
        ("tensor.split.bytes_copied", "B", "lower"),
        ("tensor.split.useful_ratio", "ratio", "higher"),
        ("tensor.load.bytes", "B", "lower"),
        ("autodiff.forward.s", "s", "lower"),
        ("autodiff.forward.self_s", "s", "lower"),
        ("autodiff.forward.calls", "count", "lower"),
        ("autodiff.forward.retained_bytes", "B", "lower"),
        ("autodiff.backward.s", "s", "lower"),
        ("autodiff.backward.self_s", "s", "lower"),
    ]
    + [
        (f"autodiff.conv_bwd.{c}.{m}", unit, "lower")
        for c in CONV_CLASSES
        for m, unit in (("s", "s"), ("macs", "count"))
    ]
    + [
        (f"autodiff.{k}.s", "s", "lower")
        for k in ("pool_bwd.max", "pool_bwd.avg", "bn_bwd", "relu_bwd", "shuffle_bwd")
    ]
    + [
        ("autodiff.sgd_step.s", "s", "lower"),
        ("autodiff.sgd_step.calls", "count", "lower"),
        ("autodiff.train_toy.self_s", "s", "lower"),
    ]
    + [
        (f"{k}.s", "s", "lower")
        for k in (
            "autodiff.init_params", "autodiff.calibrate_init",
            "autodiff.save_weights", "autodiff.load_weights",
            "graph.build_network", "graph.infer_shapes",
            "dataio.synth_dataset", "dataio.read_manifest",
            "dataio.load_clip", "dataio.sample_clip",
            "fusion.merge",
        )
    ]
    + [
        ("cli.main.self_s", "s", "lower"),
        ("trace.untraced_clips_per_s", "1/s", "higher"),
        ("trace.traced_clips_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("mac_check.conv_layers", "count", "higher"),
    ]
)


def layer_values(
    setup: dict[str, list[float]],
    loop: dict[str, list[float]],
    iterations: int,
    counts_setup: dict[str, float],
    counts_loop: dict[str, float],
) -> dict[str, float]:
    """Span and counter metrics for one traced set-up plus one iteration
    (the mean over the traced iterations)."""

    def span(name: str, col: int) -> float:
        return setup.get(name, [0.0, 0.0, 0])[col] + loop.get(name, [0.0, 0.0, 0])[col] / iterations

    def count(name: str) -> float:
        return counts_setup.get(name, 0.0) + counts_loop.get(name, 0.0) / iterations

    v: dict[str, float] = {}
    for c in CONV_CLASSES:
        name = f"ops.conv_fwd.{c}"
        v[name + ".s"] = span(name, 0)
        v[name + ".macs"] = count(name + ".macs")
        v[name + ".gmacps"] = v[name + ".macs"] / v[name + ".s"] / 1e9 if v[name + ".s"] else 0.0
        v[name + ".im2col_bytes"] = count(name + ".im2col_bytes")
        name = f"autodiff.conv_bwd.{c}"
        v[name + ".s"] = span(name, 0)
        v[name + ".macs"] = count(name + ".macs")
    copied = count("tensor.split.bytes_copied")
    useful = count("tensor.split.useful_bytes")
    v["tensor.split.bytes_copied"] = copied
    # no split slices resolved reads 0; slices resolved without copying read 1
    v["tensor.split.useful_ratio"] = useful / copied if copied else float(useful > 0)
    v["tensor.load.bytes"] = count("tensor.load.bytes")
    v["autodiff.forward.calls"] = span("autodiff.forward", 2)
    v["autodiff.sgd_step.calls"] = span("autodiff.sgd_step", 2)
    for name in ("autodiff.forward", "autodiff.backward", "autodiff.train_toy"):
        v[name + ".self_s"] = span(name, 1)
    cli_self = 0.0
    for table, scale in ((setup, 1.0), (loop, 1.0 / iterations)):
        cli_self += scale * sum(row[1] for n, row in table.items() if n.startswith("cli."))
    v["cli.main.self_s"] = cli_self
    for name, _, _ in PER_LAYER:
        if name not in v and name.endswith(".s"):
            v[name] = span(name[: -len(".s")], 0)
    return v
