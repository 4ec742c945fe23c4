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
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import (
    SITES_4B,
    WIDTH_TABLE,
    LayerSpec,
    ModuleGraph,
    build_inception_module,
)
from .ops import Conv3DSpec
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
    if layer.kind in ("conv", "pool"):
        return layer.params.macs(out_shape._replace(n=1))  # batch excluded
    return 0


class _LayerCost(NamedTuple):
    layer: LayerSpec
    params: int
    flops: int


def _layer_costs(g: ModuleGraph, include_bn_params: bool = False) -> list[_LayerCost]:
    """The one cost walk: every non-input layer's parameters and FLOPs."""
    return [
        _LayerCost(
            layer, _layer_params(layer, include_bn_params), _layer_flops(layer, g.shapes[layer.id])
        )
        for layer in g.layers
        if layer.kind != "input"
    ]


def _to_report(g: ModuleGraph, costs: list[_LayerCost]) -> CostReport:
    agg: dict[str, tuple[int, int]] = {}
    for c in costs:
        key = c.layer.row or c.layer.id
        old = agg.get(key, (0, 0))
        agg[key] = (old[0] + c.params, old[1] + c.flops)
    known = dict(NETWORK_ROWS)
    rows = [CostRow(key, label, *agg[key]) for key, label in NETWORK_ROWS if key in agg]
    rows += [CostRow(key, key, *agg[key]) for key in agg if key not in known]
    tp = sum(r.params for r in rows if r.key not in TOTAL_EXCLUDED_ROWS)
    tf = sum(r.flops for r in rows if r.key not in TOTAL_EXCLUDED_ROWS)
    return CostReport(rows, tp, tf, notes=list(g.notes))


def analyze(g: ModuleGraph, include_bn_params: bool = False) -> CostReport:
    """The one cost report: per-row parameters and FLOPs of ``g`` at its own
    input.  To cost another input, build the network at that input."""
    return _to_report(g, _layer_costs(g, include_bn_params))


def module_cost(
    variant: str,
    module: str = "4b",
    in_channels: int = 480,
    sites: tuple[int, int, int] = SITES_4B,
) -> dict:
    """Cost of module ``module`` built alone at its canonical widths and fed
    ``in_channels`` channels at ``sites``; see ``network_module_cost``."""
    g = build_inception_module(
        WIDTH_TABLE[module], variant, in_channels, name=module,
        input_shape=Shape5(1, in_channels, *sites),
    )
    return network_module_cost(g, module)


def network_module_cost(g: ModuleGraph, module: str) -> dict:
    """Cost of the layers of module ``module`` inside ``g``, split into its
    two stages (stage one: the pointwise layer row and pool; stage two: the
    rest)."""
    costs = [c for c in _layer_costs(g) if c.layer.id.startswith(module + ".")]

    def total(what: str, stage: str | None = None) -> int:
        return sum(getattr(c, what) for c in costs if stage in (None, c.layer.stage))

    return {
        "variant": g.arch,
        "module": module,
        "params": total("params"),
        "flops": total("flops"),
        "stage_one_params": total("params", "one"),
        "stage_two_params": total("params", "two"),
        "stage_one_flops": total("flops", "one"),
        "stage_two_flops": total("flops", "two"),
    }


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
    sites: tuple[int, int, int] = SITES_4B,
) -> tuple[list[FactorizationCandidate], str]:
    """The full kxkxk convolution against its four two-layer factorizations
    (temporal/spatial first, width increased early/late).  All layers are
    stride 1 with same-padding, so every layer outputs ``sites``.

    Returns the candidate list and the label of the minimum-parameter one."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"kernel extent must be odd and positive, got {k}")

    def conv(kernel, ci, co) -> Conv3DSpec:
        return Conv3DSpec(ci, co, kernel, padding=tuple(e // 2 for e in kernel))

    tp = (k, 1, 1)  # temporal
    sp = (1, k, k)  # spatial
    structures = {
        "full3D": [conv((k, k, k), in_ch, out_ch)],
        "temporal-first-widen-early": [conv(tp, in_ch, out_ch), conv(sp, out_ch, out_ch)],
        "temporal-first-widen-late": [conv(tp, in_ch, in_ch), conv(sp, in_ch, out_ch)],
        "spatial-first-widen-early": [conv(sp, in_ch, out_ch), conv(tp, out_ch, out_ch)],
        "spatial-first-widen-late": [conv(sp, in_ch, in_ch), conv(tp, in_ch, out_ch)],
    }
    candidates = []
    for label, specs in structures.items():
        layers = [(s.kernel, s.in_channels, s.out_channels) for s in specs]
        layer_params = [s.param_count for s in specs]
        flops = sum(s.macs(Shape5(1, s.out_channels, *sites)) for s in specs)
        candidates.append(
            FactorizationCandidate(label, layers, layer_params, sum(layer_params), flops)
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
