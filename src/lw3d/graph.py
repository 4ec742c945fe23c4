"""Declarative construction of the I3D / IST / SST / GSST network graphs.

A network is a DAG of typed layers.  The same graph drives both execution
(:mod:`lw3d.autodiff`) and static cost accounting (:mod:`lw3d.analysis`).
Multi-output layers (channel split) expose ports referenced as ``"id:k"``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .ops import Conv3DSpec, PoolSpec
from .tensor import Shape5

ARCHS = ("i3d", "ist", "sst", "gsst")

SHUFFLE_GROUPS = 16  # per-module shuffle group count for SST/GSST


class InceptionWidths(NamedTuple):
    b1: int
    b2_reduce: int
    b2_out: int
    b3_reduce: int
    b3_out: int
    b4_proj: int

    @property
    def out_channels(self) -> int:
        return self.b1 + self.b2_out + self.b3_out + self.b4_proj

    @property
    def capacities(self) -> tuple[int, int, int, int]:
        # branch capacity = output width of the branch's last layer
        return (self.b1, self.b2_out, self.b3_out, self.b4_proj)

    def scaled(self, mult: float) -> "InceptionWidths":
        return InceptionWidths(*(max(1, round(v * mult)) for v in self))


# Branch widths of the nine modules, in network order.
WIDTH_TABLE: dict[str, InceptionWidths] = {
    "3b": InceptionWidths(64, 96, 128, 16, 32, 32),
    "3c": InceptionWidths(128, 128, 192, 32, 96, 64),
    "4b": InceptionWidths(192, 96, 208, 16, 48, 64),
    "4c": InceptionWidths(160, 112, 224, 24, 64, 64),
    "4d": InceptionWidths(128, 128, 256, 24, 64, 64),
    "4e": InceptionWidths(112, 144, 288, 32, 64, 64),
    "4f": InceptionWidths(256, 160, 320, 32, 128, 128),
    "5b": InceptionWidths(256, 160, 320, 32, 128, 128),
    "5c": InceptionWidths(384, 192, 384, 48, 128, 128),
}

SITES_4B = (8, 14, 14)  # module 4b's TxHxW sites in the canonical network

MODULE_GROUPS = {
    "mg3": ("3b", "3c"),
    "mg4": ("4b", "4c", "4d", "4e", "4f"),
    "mg5": ("5b", "5c"),
}


@dataclass(frozen=True)
class SplitSpec:
    sizes: tuple[int, ...]


@dataclass
class LayerSpec:
    id: str
    kind: str  # input|conv|pool|bn|relu|shuffle|split|concat|softmax
    params: object = None
    inputs: list[str] = field(default_factory=list)
    row: str = ""  # cost-report row this layer belongs to
    stage: str = ""  # "one"/"two" for layers inside inception-style modules


@dataclass
class SplitAllocation:
    group_count: int
    groups_per_path: tuple[int, ...]
    channels_per_path: tuple[int, ...]


@dataclass
class ModuleGraph:
    layers: list[LayerSpec]
    arch: str
    num_classes: int | None = None
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        """The graph's one compile step: a single walk checks ids and
        references and records what every read reference resolves to
        (``ports``), every layer's output shape (``shapes``; a shape fault
        raises ``ShapeError``) and when every activation is last read
        (``frees``)."""
        self._by_id = {}
        self.ports: dict[str, tuple[str, slice]] = {}
        self.shapes: dict[str, Shape5] = {}
        # the last layer that reads each activation, or the layer itself
        # when none does
        last: dict[str, str] = {}
        for layer in self.layers:
            if layer.id in self._by_id:
                raise ValueError(f"duplicate layer id {layer.id!r}")
            ins = []  # the shape each reference reads
            for ref in layer.inputs:
                try:
                    base, channels = self.port(ref)
                except ValueError as e:
                    raise ValueError(f"layer {layer.id!r}: {e}") from None
                self.ports[ref] = base, channels
                last[base] = layer.id
                s = self.shapes[base]
                ins.append(s._replace(c=len(range(s.c)[channels])))
            if layer.kind != "input" and not layer.inputs:
                raise ValueError(f"layer {layer.id!r} has no predecessor")
            if layer.kind == "softmax" and layer is not self.layers[-1]:
                raise ValueError(f"softmax layer {layer.id!r} is not the last layer")
            self._by_id[layer.id] = layer
            last[layer.id] = layer.id
            try:
                self.shapes[layer.id] = _output_shape(layer, ins)
            except ValueError as e:
                raise ShapeError(f"shape inference failed at {layer.id!r}: {e}") from e
        # layer id -> the activations no layer reads after it has run; the
        # output is never freed.  A split's entry is its input's tensor under
        # the split's own id, so its ports outlive the input's entry.
        self.frees: dict[str, list[str]] = {layer.id: [] for layer in self.layers}
        for lid, reader in last.items():
            if lid != self.output_id:
                self.frees[reader].append(lid)

    def layer(self, layer_id: str) -> LayerSpec:
        return self._by_id[layer_id]

    def port(self, ref: str) -> tuple[str, slice]:
        """Base layer id and channel slice of an input reference: ``"id"``
        takes every channel of layer ``id``, ``"id:k"`` takes the k-th part
        of split layer ``id``."""
        base, sep, k = ref.partition(":")
        layer = self._by_id.get(base)
        if layer is None:
            raise ValueError(f"reference {ref!r} before definition")
        if not sep:
            return base, slice(None)
        sizes = layer.params.sizes if layer.kind == "split" else ()
        if not k.isdigit() or int(k) >= len(sizes):
            raise ValueError(f"reference {ref!r} names no port of layer {base!r}")
        start = sum(sizes[: int(k)])
        return base, slice(start, start + sizes[int(k)])

    @property
    def output_id(self) -> str:
        return self.layers[-1].id

    @property
    def input_shape(self) -> Shape5:
        return self.shapes[self.layers[0].id]


def allocate_groups(
    n_groups: int,
    capacities: Sequence[int],
    in_channels: int | None = None,
) -> SplitAllocation:
    """Largest-remainder split of ``n_groups`` shuffle groups over branches,
    proportional to branch capacity; every branch gets at least one group.

    Remainder ties go to the later branch (this is what keeps the canonical
    4b allocation at (6, 6, 2, 2))."""
    caps = list(capacities)
    if n_groups < len(caps):
        raise ValueError(f"need at least {len(caps)} groups, got {n_groups}")
    if any(c <= 0 for c in caps):
        raise ValueError("capacities must be positive")
    total = sum(caps)
    quotas = [n_groups * c / total for c in caps]
    groups = [int(q) for q in quotas]
    remainders = [q - g for q, g in zip(quotas, groups)]
    order = sorted(range(len(caps)), key=lambda i: (-remainders[i], -i))
    for i in order[: n_groups - sum(groups)]:
        groups[i] += 1
    # floor guarantee: move single groups from the largest share
    while min(groups) < 1:
        groups[groups.index(max(groups))] -= 1
        groups[groups.index(min(groups))] += 1
    channels: tuple[int, ...] = ()
    if in_channels is not None:
        if in_channels % n_groups:
            raise ValueError(f"{in_channels} channels not divisible into {n_groups} groups")
        unit = in_channels // n_groups
        channels = tuple(g * unit for g in groups)
    return SplitAllocation(n_groups, tuple(groups), channels)


def shuffle_group_count(in_channels: int) -> int:
    """Largest group count in [4, 16] dividing ``in_channels``, preferring
    counts whose per-group channel unit is even (so the grouped variant can
    halve every branch convolution no matter how the groups are allocated)."""
    for n in range(SHUFFLE_GROUPS, 3, -1):
        if in_channels % n == 0 and (in_channels // n) % 2 == 0:
            return n
    for n in range(SHUFFLE_GROUPS, 3, -1):
        if in_channels % n == 0:
            return n
    raise ValueError(f"no shuffle group count in [4, 16] divides {in_channels}")


# Pools after module groups 3 and 4, each its own cost-report row.
TRAILING_POOLS = {
    "mg3": ("maxp3", PoolSpec("max", (3, 3, 3), (2, 2, 2), (1, 1, 1))),
    "mg4": ("maxp4", PoolSpec("max", (2, 2, 2), (2, 2, 2), (0, 0, 0))),
}
STEM_POOL = PoolSpec("max", (1, 3, 3), (1, 2, 2), (0, 1, 1))


class _Builder:
    def __init__(self, arch: str):
        self.arch = arch
        self.groups = 2 if arch == "gsst" else 1  # gsst: convs after conv1 in 2 groups
        self.layers: list[LayerSpec] = []
        self.notes: list[str] = []

    def add(self, layer: LayerSpec) -> str:
        self.layers.append(layer)
        return layer.id

    def conv(
        self, name: str, cin: int, cout: int, src: str, row: str, stage: str = "",
        kernel=(1, 1, 1), stride=(1, 1, 1), padding=(0, 0, 0), groups: int | None = None,
    ) -> str:
        """Append conv -> bn -> relu in the arch's groups (or ``groups``).  A
        convolution whose widths cannot split evenly is degrouped (only ever
        fires on scaled-down toy widths, never on the canonical tables)."""
        g = self.groups if groups is None else groups
        if g > 1 and (cin % g or cout % g):
            self.notes.append(
                f"{name}: widths {cin}->{cout} not divisible into {g} "
                "groups, using an ungrouped convolution"
            )
            g = 1
        spec = Conv3DSpec(cin, cout, kernel, stride, padding, g)
        ref = self.add(LayerSpec(name, "conv", spec, [src], row, stage))
        ref = self.add(LayerSpec(name + ".bn", "bn", cout, [ref], row, stage))
        return self.add(LayerSpec(name + ".relu", "relu", None, [ref], row, stage))

    def cube(
        self, name: str, cin: int, mid: int, cout: int, k: int, src: str, row: str,
        stage: str = "", stride: int = 1, groups: int | None = None, full: str = "",
    ) -> str:
        """The paper's factorization rule.  i3d keeps the k x k x k conv (named
        ``full`` or ``name``); the others replace it by a 1 x k x k conv to
        ``mid`` channels (``name.spatial``) and a k x 1 x 1 conv to ``cout``
        (``name.temporal``), splitting the stride and padding between them."""
        p, s = k // 2, stride
        if self.arch == "i3d":
            return self.conv(full or name, cin, cout, src, row, stage,
                             (k, k, k), (s, s, s), (p, p, p), groups)
        ref = self.conv(f"{name}.spatial", cin, mid, src, row, stage,
                        (1, k, k), (1, s, s), (0, p, p), groups)
        return self.conv(f"{name}.temporal", mid, cout, ref, row, stage,
                         (k, 1, 1), (s, 1, 1), (p, 0, 0), groups)

    def inception_module(
        self,
        name: str,
        widths: InceptionWidths,
        in_channels: int,
        input_ref: str,
        row: str = "",
    ) -> tuple[str, int]:
        """Append one Inc/IST/SST/GSST module; returns (output ref, out channels)."""
        if self.arch in ("sst", "gsst"):
            n_shuf = shuffle_group_count(in_channels)
            if n_shuf != SHUFFLE_GROUPS:
                self.notes.append(
                    f"{name}: {in_channels} input channels do not split into "
                    f"{SHUFFLE_GROUPS} even-width groups, shuffling {n_shuf} "
                    "groups instead"
                )
            alloc = allocate_groups(n_shuf, widths.capacities, in_channels)
            sid = self.add(
                LayerSpec(f"{name}.shuffle", "shuffle", n_shuf, [input_ref], row)
            )
            split = SplitSpec(alloc.channels_per_path)
            split_id = self.add(LayerSpec(f"{name}.split", "split", split, [sid], row))
            branch_in = [f"{split_id}:{i}" for i in range(4)]
            branch_ch = list(alloc.channels_per_path)
        else:
            branch_in = [input_ref] * 4
            branch_ch = [in_channels] * 4

        # branch 1: single pointwise
        outs = [self.conv(f"{name}.b1", branch_ch[0], widths.b1, branch_in[0], row, "one")]
        # branches 2 and 3: reduce, then a factorized 3x3x3 widening in its temporal half
        for bi, reduce_w, out_w in (
            (2, widths.b2_reduce, widths.b2_out),
            (3, widths.b3_reduce, widths.b3_out),
        ):
            prefix = f"{name}.b{bi}"
            red = self.conv(
                f"{prefix}.reduce", branch_ch[bi - 1], reduce_w, branch_in[bi - 1],
                row, "one",
            )
            outs.append(self.cube(
                prefix, reduce_w, reduce_w, out_w, 3, red, row, "two",
                full=f"{prefix}.conv",
            ))
        # branch 4: maxpool + projection
        pool = PoolSpec("max", (3, 3, 3), (1, 1, 1), (1, 1, 1))
        pid = self.add(
            LayerSpec(f"{name}.b4.pool", "pool", pool, [branch_in[3]], row, "one")
        )
        outs.append(
            self.conv(f"{name}.b4.proj", branch_ch[3], widths.b4_proj, pid, row, "two")
        )
        cat = self.add(LayerSpec(f"{name}.concat", "concat", None, outs, row))
        return cat, widths.out_channels


def build_inception_module(
    widths: InceptionWidths,
    variant: str,
    in_channels: int,
    name: str = "module",
    input_shape: Shape5 | None = None,
) -> ModuleGraph:
    """Standalone single-module graph (used for per-module cost analysis)."""
    if variant not in ARCHS:
        raise ValueError(f"unknown variant {variant!r}")
    if input_shape is None:
        input_shape = Shape5(1, in_channels, *SITES_4B)
    b = _Builder(variant)
    b.add(LayerSpec("input", "input", input_shape))
    b.inception_module(name, widths, in_channels, "input", row=name)
    return ModuleGraph(b.layers, variant, notes=b.notes)


def build_network(
    arch: str,
    input_shape: Shape5 | tuple,
    num_classes: int = 60,
    width_mult: float = 1.0,
    width_overrides: dict[str, InceptionWidths] | None = None,
) -> ModuleGraph:
    """Assemble a full network graph for one of the four architectures."""
    arch = arch.lower()
    if arch not in ARCHS:
        raise ValueError(f"unknown arch {arch!r}; expected one of {ARCHS}")
    input_shape = Shape5(*input_shape)
    if input_shape.c < 1:
        raise ValueError("input must have at least one channel")
    if num_classes < 1:
        raise ValueError(f"need at least one class, got {num_classes}")
    if not (math.isfinite(width_mult) and width_mult > 0):
        raise ValueError(f"width multiplier must be positive and finite, got {width_mult}")
    overrides = width_overrides or {}
    w64, w192 = (max(1, round(v * width_mult)) for v in (64, 192))

    b = _Builder(arch)
    cur = b.add(LayerSpec("input", "input", input_shape))
    # the stem: conv1 is never grouped and widens in its spatial half
    cur = b.cube("conv1", input_shape.c, w64, w64, 7, cur, "conv1", stride=2, groups=1)
    cur = b.add(LayerSpec("maxp1", "pool", STEM_POOL, [cur], "maxp1"))
    cur = b.conv("conv2", w64, w64, cur, "conv2")
    cur = b.cube("conv3", w64, w64, w192, 3, cur, "conv3")
    cur = b.add(LayerSpec("maxp2", "pool", STEM_POOL, [cur], "maxp2"))
    channels = w192
    for group, module_names in MODULE_GROUPS.items():
        for mod in module_names:
            widths = overrides.get(mod) or WIDTH_TABLE[mod].scaled(width_mult)
            cur, channels = b.inception_module(mod, widths, channels, cur, row=group)
        if group in TRAILING_POOLS:
            pid, pool = TRAILING_POOLS[group]
            cur = b.add(LayerSpec(pid, "pool", pool, [cur], pid))
    # final average pool: canonical kernel 2x7x7, clamped to the actual
    # feature-map extent so small toy inputs stay valid
    feat = ModuleGraph(list(b.layers), arch, notes=b.notes).shapes[cur]
    avg_kernel = (min(2, feat.t), min(7, feat.h), min(7, feat.w))
    cur = b.add(
        LayerSpec("avgp", "pool", PoolSpec("avg", avg_kernel), [cur], "avgp")
    )
    cur = b.add(
        LayerSpec(
            "classifier", "conv",
            Conv3DSpec(channels, num_classes, (1, 1, 1)), [cur], "classifier",
        )
    )
    b.add(LayerSpec("softmax", "softmax", None, [cur], "classifier"))
    return ModuleGraph(b.layers, arch, num_classes, notes=b.notes)


class ShapeError(ValueError):
    """A layer's input shape does not fit it; raised when the graph is built."""


def _output_shape(layer: LayerSpec, ins: list[Shape5]) -> Shape5:
    """One layer's output shape from its input shapes, by its kind's rule."""
    if layer.kind == "input":
        return Shape5(*layer.params)
    x = ins[0]
    if layer.kind in ("conv", "pool"):
        return layer.params.output_shape(x)
    if layer.kind == "bn" and x.c != layer.params:
        raise ValueError(f"bn over {layer.params} channels fed {x.c} channels")
    if layer.kind == "shuffle" and x.c % layer.params:
        raise ValueError(f"{x.c} channels not divisible by shuffle groups {layer.params}")
    if layer.kind == "split" and any(s < 1 for s in layer.params.sizes):
        raise ValueError(f"split sizes {layer.params.sizes} must each be at least 1")
    if layer.kind == "split" and sum(layer.params.sizes) != x.c:
        raise ValueError(f"split sizes {layer.params.sizes} do not sum to {x.c}")
    if layer.kind in ("bn", "relu", "softmax", "shuffle", "split"):
        return x
    if layer.kind == "concat":
        for s in ins[1:]:
            if (s.n, s.t, s.h, s.w) != (x.n, x.t, x.h, x.w):
                raise ValueError("concat inputs disagree on n/t/h/w")
        return x._replace(c=sum(s.c for s in ins))
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def infer_shapes(g: ModuleGraph) -> dict[str, Shape5]:
    """``g.shapes``.  Kept only for ``perfbench/tracer.py``, which calls and
    times it; ROADMAP item 14 retires it with the tracer's wrappers."""
    return g.shapes


def parameterized_layers(g: ModuleGraph) -> list[LayerSpec]:
    """Conv and bn layers in topological order; defines weight-file record order."""
    return [layer for layer in g.layers if layer.kind in ("conv", "bn")]


@dataclass
class NetworkConfig:  # the defaults describe the canonical network
    arch: str = ""
    input: tuple[int, int, int, int] = (3, 32, 224, 224)  # (c, t, h, w); batch implied 1
    classes: int = 60
    width_mult: float = 1.0
    width_overrides: dict[str, InceptionWidths] = field(default_factory=dict)


def parse_shape_arg(text: str, form: str = "CxTxHxW") -> tuple[int, ...]:
    """Parse a command-line / config shape written in ``form``, CxTxHxW or TxHxW."""
    try:
        dims = tuple(int(v) for v in text.lower().split("x"))
    except ValueError as e:
        raise ValueError(f"bad shape {text!r}: {e}") from e
    if len(dims) != form.count("x") + 1 or any(d < 1 for d in dims):
        raise ValueError(f"bad shape {text!r}: expected {form} of positive integers")
    return dims


def _arch(text: str) -> str:
    arch = text.lower()
    if arch not in ARCHS:
        raise ValueError(f"unknown arch {text!r}; expected one of {ARCHS}")
    return arch


def _at_least_one(text: str) -> int:
    v = int(text)
    if v < 1:
        raise ValueError(f"must be at least 1, got {v}")
    return v


def _positive_finite(text: str) -> float:
    v = float(text)
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"must be positive and finite, got {v}")
    return v


def parse_network_config(path) -> NetworkConfig:
    """Read the declarative architecture description (INI key-value sections).
    A malformed file raises a one-line ValueError naming the file."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as f:
            cp.read_file(f)
    except configparser.Error as e:  # its message names the file and the line
        raise ValueError(" ".join(str(e).split())) from None
    if "network" not in cp:
        raise ValueError(f"{path}: missing [network] section")

    def value(section: str, key: str, parse=str, default=None):
        text = cp[section].get(key)
        if text is None:
            if default is None:
                raise ValueError(f"{path}: [{section}] has no {key!r} field")
            return default
        try:
            return parse(text)
        except ValueError as e:
            raise ValueError(f"{path}: [{section}] {key}: {e}") from None

    dims = value("network", "input", parse_shape_arg)
    overrides: dict[str, InceptionWidths] = {}
    for section in cp.sections():
        if section.startswith("widths."):
            mod = section.split(".", 1)[1]
            if mod not in WIDTH_TABLE:
                raise ValueError(f"{path}: unknown module {mod!r} in {section}")
            overrides[mod] = InceptionWidths(
                *(value(section, k, _at_least_one) for k in InceptionWidths._fields)
            )
    return NetworkConfig(
        arch=value("network", "arch", _arch),
        input=dims,
        classes=value("network", "classes", _at_least_one, NetworkConfig.classes),
        width_mult=value("network", "width_mult", _positive_finite, NetworkConfig.width_mult),
        width_overrides=overrides,
    )
