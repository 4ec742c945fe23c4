"""Static parameter and FLOP accounting for network graphs.

Counting convention (fixed): one multiply-accumulate = one FLOP, biases do
not exist, pools cost kernel-volume per output element, bn/relu/softmax/
shuffle/split/concat cost zero, and the batch axis is excluded.  Batch-norm
parameters are excluded from parameter counts unless explicitly requested.
The classifier layer is excluded from report totals.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from .graph import (
    WIDTH_TABLE,
    ModuleGraph,
    build_inception_module,
    infer_shapes,
)
from .tensor import Shape5

CONVENTION = (
    "MAC=1FLOP, pools counted at kernel-volume per output element, "
    "bn/relu/softmax/shuffle/split = 0"
)

# Display order and labels for full-network reports.
NETWORK_ROWS = [
    ("conv1", "Conv1"),
    ("maxp1", "Max-p"),
    ("conv2", "Conv2"),
    ("conv3", "Conv3"),
    ("maxp2", "Max-p"),
    ("mg3", "Module group 3"),
    ("maxp3", "Max-p"),
    ("mg4", "Module group 4"),
    ("maxp4", "Max-p"),
    ("mg5", "Module group 5"),
    ("avgp", "Avg-p"),
    ("classifier", "Classifier"),
]

TOTAL_EXCLUDED_ROWS = ("classifier",)


@dataclass
class CostRow:
    key: str
    label: str
    params: int
    flops: int


@dataclass
class CostReport:
    rows: list[CostRow]
    total_params: int
    total_flops: int
    convention: str = CONVENTION
    notes: list[str] = field(default_factory=list)


def _layer_params(layer, include_bn_params: bool) -> int:
    if layer.kind == "conv":
        return layer.params.param_count
    if layer.kind == "bn" and include_bn_params:
        return 2 * layer.params  # learnable scale and shift
    return 0


def _layer_flops(layer, out_shape: Shape5) -> int:
    one = out_shape._replace(n=1)  # batch excluded
    if layer.kind == "conv":
        return layer.params.macs(one)
    if layer.kind == "pool":
        return one.size * math.prod(layer.params.kernel)
    return 0


def _aggregate(
    g: ModuleGraph,
    include_bn_params: bool,
    with_flops: bool,
    input_shape: Shape5 | None = None,
) -> dict[str, tuple[int, int]]:
    shapes = infer_shapes(g, input_shape) if with_flops else {}
    agg: dict[str, tuple[int, int]] = {}
    for layer in g.layers:
        if layer.kind == "input":
            continue
        key = layer.row or layer.id
        p = _layer_params(layer, include_bn_params)
        f = _layer_flops(layer, shapes[layer.id]) if with_flops else 0
        old = agg.get(key, (0, 0))
        agg[key] = (old[0] + p, old[1] + f)
    return agg


def _to_report(g: ModuleGraph, agg: dict[str, tuple[int, int]]) -> CostReport:
    known = dict(NETWORK_ROWS)
    rows = []
    for key, _label in NETWORK_ROWS:
        if key in agg:
            rows.append(CostRow(key, known[key], *agg[key]))
    for key in agg:
        if key not in known:
            rows.append(CostRow(key, key, *agg[key]))
    tp = sum(r.params for r in rows if r.key not in TOTAL_EXCLUDED_ROWS)
    tf = sum(r.flops for r in rows if r.key not in TOTAL_EXCLUDED_ROWS)
    return CostReport(rows, tp, tf, notes=list(g.notes))


def count_params(g: ModuleGraph, include_bn_params: bool = False) -> CostReport:
    return _to_report(g, _aggregate(g, include_bn_params, with_flops=False))


def count_flops(g: ModuleGraph, input_shape: Shape5 | None = None) -> CostReport:
    if input_shape is not None:
        input_shape = Shape5(*input_shape)
    return _to_report(g, _aggregate(g, False, with_flops=True, input_shape=input_shape))


def analyze(
    g: ModuleGraph, include_bn_params: bool = False
) -> CostReport:
    """Combined per-row parameter and FLOP report for a network graph."""
    return _to_report(g, _aggregate(g, include_bn_params, with_flops=True))


def module_cost(
    variant: str,
    module: str = "4b",
    in_channels: int = 480,
    sites: tuple[int, int, int] = (8, 14, 14),
) -> dict:
    """Cost of a single inception-style module, split into its two stages
    (stage one: the pointwise layer row and pool; stage two: the rest)."""
    widths = WIDTH_TABLE[module]
    g = build_inception_module(
        widths, variant, in_channels, name=module,
        input_shape=Shape5(1, in_channels, *sites),
    )
    shapes = infer_shapes(g)
    out = {
        "variant": variant,
        "module": module,
        "params": 0,
        "flops": 0,
        "stage_one_params": 0,
        "stage_two_params": 0,
        "stage_one_flops": 0,
        "stage_two_flops": 0,
    }
    for layer in g.layers:
        if layer.kind == "input":
            continue
        p = _layer_params(layer, False)
        f = _layer_flops(layer, shapes[layer.id])
        out["params"] += p
        out["flops"] += f
        if layer.stage == "one":
            out["stage_one_params"] += p
            out["stage_one_flops"] += f
        elif layer.stage == "two":
            out["stage_two_params"] += p
            out["stage_two_flops"] += f
    return out


@dataclass
class FactorizationCandidate:
    label: str
    layers: list[tuple[tuple[int, int, int], int, int]]  # (kernel, in, out)
    layer_params: list[int]
    params: int
    flops: int


def compare_factorizations(
    in_ch: int,
    out_ch: int,
    k: int,
    sites: tuple[int, int, int] = (8, 14, 14),
) -> tuple[list[FactorizationCandidate], str]:
    """The full kxkxk convolution against its four two-layer factorizations
    (temporal/spatial first, width increased early/late).  All layers are
    stride 1 with same-padding, so FLOPs = params x output sites.

    Returns the candidate list and the label of the minimum-parameter one."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"kernel extent must be odd and positive, got {k}")
    site_count = math.prod(sites)
    temporal = (k, 1, 1)
    spatial = (1, k, k)
    structures = {
        "full3D": [((k, k, k), in_ch, out_ch)],
        "temporal-first-widen-early": [(temporal, in_ch, out_ch), (spatial, out_ch, out_ch)],
        "temporal-first-widen-late": [(temporal, in_ch, in_ch), (spatial, in_ch, out_ch)],
        "spatial-first-widen-early": [(spatial, in_ch, out_ch), (temporal, out_ch, out_ch)],
        "spatial-first-widen-late": [(spatial, in_ch, in_ch), (temporal, in_ch, out_ch)],
    }
    candidates = []
    for label, layers in structures.items():
        layer_params = [math.prod(kern) * ci * co for kern, ci, co in layers]
        params = sum(layer_params)
        candidates.append(
            FactorizationCandidate(label, layers, layer_params, params, params * site_count)
        )
    best = min(candidates, key=lambda c: c.params).label
    return candidates, best


def format_millions(v: int) -> str:
    return f"{v / 1e6:.3f}"


def format_giga(v: int) -> str:
    return f"{v / 1e9:.3f}"


def emit_report(r: CostReport, fmt: str = "table") -> str:
    """Deterministic text rendering; M/G columns use divisor 1e6/1e9 at
    three decimal places, csv/json keep the raw integer counts too."""
    if fmt == "table":
        lines = ["Layer | Params(M) | FLOPs(G)"]
        for row in r.rows:
            p = "0" if row.params == 0 else format_millions(row.params)
            lines.append(f"{row.label} | {p} | {format_giga(row.flops)}")
        lines.append(
            f"Total | {format_millions(r.total_params)} | {format_giga(r.total_flops)}"
        )
        for note in r.notes:
            lines.append(f"# {note}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        # the builder's notes follow the totals as ``note,<text>`` rows
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["row", "params_m", "flops_g", "params", "flops"])
        rows = [(row.key, row.params, row.flops) for row in r.rows]
        for key, p, f in rows + [("total", r.total_params, r.total_flops)]:
            writer.writerow([key, format_millions(p), format_giga(f), p, f])
        writer.writerows(["note", note] for note in r.notes)
        return out.getvalue()
    if fmt == "json":
        payload = {
            "convention": r.convention,
            "rows": [
                {
                    "key": row.key,
                    "label": row.label,
                    "params": row.params,
                    "flops": row.flops,
                    "params_m": format_millions(row.params),
                    "flops_g": format_giga(row.flops),
                }
                for row in r.rows
            ],
            "total": {
                "params": r.total_params,
                "flops": r.total_flops,
                "params_m": format_millions(r.total_params),
                "flops_g": format_giga(r.total_flops),
            },
            "notes": r.notes,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
