"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data/contract error.  All
subcommands are deterministic for fixed seeds except ``bench``, which is
wall-clock and labeled as such.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

from . import analysis, autodiff, dataio, fusion, gradcheck, graph, ops
from .tensor import Shape5, Tensor5D

EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this toolkit reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


class _Checked(argparse.Action):
    """Stores ``check(value)``, which runs while the command line is parsed, so
    before any command reads or writes anything.  A value it rejects with a
    ValueError is a data error (exit 2) naming the flag as typed and ``rule``."""

    def __init__(self, *args, check, rule, **kwargs):
        super().__init__(*args, **kwargs)
        self.check, self.rule = check, rule

    def __call__(self, parser, namespace, value, option_string=None):
        try:
            setattr(namespace, self.dest, self.check(value))
        except ValueError:
            raise ValueError(f"{option_string} must be {self.rule}, got {value!r}") from None


def _bounded(type_, rule: str, ok) -> dict:
    """``add_argument`` keywords of a flag whose ``type_`` value must pass ``ok``."""

    def check(value):
        if not ok(value):
            raise ValueError(value)
        return value

    return {"type": type_, "action": _Checked, "check": check, "rule": rule}


COUNT = _bounded(int, "at least 1", lambda v: v >= 1)
SEED = _bounded(int, "at least 0", lambda v: v >= 0)
RATE = _bounded(float, "positive and finite", lambda v: math.isfinite(v) and v > 0)
ACCURACY = _bounded(float, "in [0, 1]", lambda v: 0 <= v <= 1)
KERNEL = _bounded(int, "odd and positive", lambda v: v > 0 and v % 2 == 1)


# a file written only after the work, so its directory is checked before it
OUT_FILE = _bounded(
    str, "a file in an existing directory",
    lambda v: os.path.isdir(os.path.dirname(v) or ".") and not os.path.isdir(v),
)


def _shape(form: str) -> dict:
    """``add_argument`` keywords of a flag holding a shape written in ``form``."""
    return {"action": _Checked, "check": lambda text: graph.parse_shape_arg(text, form),
            "rule": f"{form} of positive integers", "metavar": form}


def _network_from_args(args) -> graph.ModuleGraph:
    """The ``--config`` network, or the default one, with the flags laid over it."""
    cfg = graph.parse_network_config(args.config) if args.config else graph.NetworkConfig()
    arch = args.arch or cfg.arch
    if not arch:
        raise ValueError("--arch is required without --config")
    dims = args.input or cfg.input
    classes = cfg.classes if args.classes is None else args.classes
    mult = cfg.width_mult if args.width_mult is None else args.width_mult
    try:
        return graph.build_network(arch, Shape5(1, *dims), classes, mult, cfg.width_overrides)
    except graph.ShapeError as e:  # e.g. an input smaller than the network's pools
        text = "x".join(map(str, dims))
        source = (
            f"--input must be a shape {arch} fits, got {text!r}" if args.input
            else f"{args.config}: [network] input {text} does not fit {arch}"
        )
        raise ValueError(f"{source}: {e}") from None


def _load_clip(record, g: graph.ModuleGraph, match_t: bool) -> Tensor5D:
    """The record's clip through ``dataio.load_clip``; one clip per file, and
    its C, H and W, and its T when ``match_t``, equal to the network input's."""
    want = g.input_shape
    x = dataio.load_clip(record)
    if x.shape != want._replace(t=want.t if match_t else x.t):
        dims = "N, C, T, H or W" if match_t else "N, C, H or W"
        raise ValueError(
            f"{record.path}: clip {tuple(x.shape)} differs from the network input "
            f"{tuple(want)} in {dims}"
        )
    return x


def cmd_analyze(args) -> int:
    if args.module and not (args.arch or args.config):
        args.arch = "i3d"  # a module's cost defaults to the dense baseline's
    g = _network_from_args(args)
    if args.module:
        cost = analysis.network_module_cost(g, args.module)
        print(f"module {args.module} ({g.arch})")
        print(f"params {cost['params']}  flops {cost['flops']}")
        print(
            f"stage-one params {cost['stage_one_params']}  "
            f"stage-two params {cost['stage_two_params']}"
        )
        return 0
    report = analysis.analyze(g, include_bn_params=args.include_bn_params)
    sys.stdout.write(analysis.emit_report(report, args.format))
    return 0


def cmd_compare_factorizations(args) -> int:
    candidates, best = analysis.compare_factorizations(
        args.in_channels, args.out_channels, args.k, args.sites
    )
    if args.format == "table":
        print("Structure | Params | Layer params | FLOPs")
        for c in candidates:
            parts = " + ".join(str(v) for v in c.layer_params)
            mark = "  <- fewest parameters" if c.label == best else ""
            print(f"{c.label} | {c.params} | {parts} | {c.flops}{mark}")
    else:
        import json

        print(
            json.dumps(
                {
                    "best": best,
                    "candidates": [
                        {
                            "label": c.label,
                            "params": c.params,
                            "layer_params": c.layer_params,
                            "flops": c.flops,
                        }
                        for c in candidates
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    return 0


def _csv_rows(path) -> list[tuple[int, list[str]]]:
    """(line number, cells) for each non-empty row of a CSV file."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        return [(reader.line_num, row) for row in reader if row]


def _csv_cell(path, line: int, text: str, parse, message: str):
    """``parse(text)``, or a one-line error naming the file and the line."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{path}: line {line}: {message.format(text)}") from None


def _read_scores_csv(path) -> np.ndarray:
    rows = _csv_rows(path)
    if not rows:
        raise ValueError(f"{path}: no score rows")
    width = len(rows[0][1])
    scores = []
    for line, row in rows:
        if len(row) != width:
            raise ValueError(f"{path}: line {line}: expected {width} scores, got {len(row)}")
        for v in row:
            scores.append(_csv_cell(path, line, v, float, "score {!r} is not a number"))
            if not math.isfinite(scores[-1]):
                raise ValueError(f"{path}: line {line}: score {v!r} is not a finite number")
    return np.asarray(scores, dtype=np.float64).reshape(len(rows), width)


def _read_labels_csv(path, classes: int) -> np.ndarray:
    """One integer label per row, each naming one of ``classes`` score columns."""
    labels = []
    for line, row in _csv_rows(path):
        if len(row) != 1:
            raise ValueError(f"{path}: line {line}: expected one label, got {len(row)} cells")
        y = _csv_cell(path, line, row[0], int, "label {!r} is not an integer")
        if not 0 <= y < classes:
            raise ValueError(f"{path}: line {line}: label {y} is not one of the {classes} classes")
        labels.append(y)
    return np.asarray(labels, dtype=np.int64)


def cmd_fuse(args) -> int:
    if args.strategy == fusion.MS2:
        missing = [f for f, v in (("--acc-a", args.acc_a), ("--acc-b", args.acc_b)) if v is None]
        if missing:
            raise ValueError(f"--strategy ms2 requires {' and '.join(missing)}")
    a = _read_scores_csv(args.scores_a)
    b = _read_scores_csv(args.scores_b)
    if a.shape != b.shape:
        raise ValueError(
            f"score shapes differ: {args.scores_a} is {len(a)}x{a.shape[1]}, "
            f"{args.scores_b} is {len(b)}x{b.shape[1]}"
        )
    labels = _read_labels_csv(args.labels, a.shape[1]) if args.labels else None
    if labels is not None and len(labels) != len(a):
        raise ValueError(f"{args.labels}: {len(labels)} labels for {len(a)} score rows")
    merged = fusion.merge(a, b, args.strategy, args.acc_a, args.acc_b)
    if labels is not None:
        acc = fusion.evaluate_accuracy(merged, labels)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in merged:
        writer.writerow([f"{v:.6f}" for v in row])
    if labels is not None:
        print(f"accuracy,{acc:.6f}")
    return 0


def cmd_synth_data(args) -> int:
    records = dataio.synth_dataset(
        args.classes, args.clips_per_class, args.shape, args.seed, args.out, args.stream
    )
    print(f"wrote {len(records)} clips under {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    err = gradcheck.check_op(args.op, trials=args.trials, seed=args.seed)
    print(f"op {args.op}: max relative gradient error {err:.3e} over {args.trials} trials")
    return 0 if err <= 1e-2 else EXIT_DATA


def cmd_train_toy(args) -> int:
    g = _network_from_args(args)
    cfg = autodiff.TrainConfig(
        learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs,
        plateau_patience=args.patience,
    )
    records = dataio.read_manifest(args.data)
    for r in records:  # train_toy checks labels too, but cannot name the files
        if not 0 <= r.label < g.num_classes:
            raise ValueError(
                f"{args.data}: {r.path}: label {r.label} is not one of the "
                f"network's {g.num_classes} classes"
            )
    dataset = [(_load_clip(r, g, match_t=True), r.label) for r in records]
    history, params = autodiff.train_toy(g, dataset, cfg, seed=args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["epoch", "loss", "accuracy", "lr"])
    for h in history:
        writer.writerow(
            [h["epoch"], f"{h['loss']:.6f}", f"{h['accuracy']:.4f}", h["lr"]]
        )
    if args.save_weights:
        autodiff.save_weights(args.save_weights, g, params)
    return 0


def cmd_infer(args) -> int:
    """Score each clip as the mean of its ``--windows`` windows' softmax
    scores.  One clip at a time: each is loaded, checked and scored before
    the next is read, and ``forward`` frees each window after the stem.
    The rows are printed once every clip is scored, so a clip that does not
    fit, or whose scores are not finite, stops the command (exit 2) with no
    row printed."""
    g = _network_from_args(args)
    params = (
        autodiff.load_weights(args.weights, g)
        if args.weights
        else autodiff.init_params(g, args.seed)
    )
    if args.manifest:
        records = dataio.read_manifest(args.manifest)
    else:
        records = [dataio.ClipRecord(args.tensor, 0)]  # infer reads no label
    rng = np.random.default_rng(args.seed)
    rows = [_clip_scores(g, params, r, args.windows, rng) for r in records]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for scores in rows:
        writer.writerow([f"{v:.6f}" for v in scores])
    return 0


def _clip_scores(
    g: graph.ModuleGraph, params: autodiff.NetworkParams, record: dataio.ClipRecord,
    windows: int, rng: np.random.Generator,
) -> np.ndarray:
    """The record's class scores, averaged over ``windows`` windows whose
    seeds ``rng`` draws in turn."""
    clip = _load_clip(record, g, match_t=False)  # windows are sampled to T
    keep = {g.output_id}  # the scores read nothing else
    scores = np.zeros(g.num_classes, dtype=np.float64)
    with np.errstate(all="ignore"):  # an overflow shows in the scores, checked below
        for _ in range(windows):
            seed = int(rng.integers(0, 2**31 - 1))
            # passed unnamed, so the forward holds the window's only reference
            acts = autodiff.forward(
                g, params, dataio.sample_clip(clip, g.input_shape.t, seed), keep=keep
            )
            scores += autodiff.predict_scores(g, acts)[0]
    scores /= windows
    if not np.isfinite(scores).all():
        raise ValueError(f"{record.path}: the clip's scores are not finite")
    return scores


def cmd_bench(args) -> int:
    g = _network_from_args(args)
    shape = g.input_shape
    params = autodiff.init_params(g, args.seed)
    rng = np.random.default_rng(args.seed)
    x = Tensor5D(rng.standard_normal((args.batch, shape.c, shape.t, shape.h, shape.w)))
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        autodiff.forward(g, params, x, keep={g.output_id})  # the forward infer runs
        times.append(time.perf_counter() - t0)
    print(
        f"arch {g.arch} batch {args.batch}: median forward "
        f"{statistics.median(times):.3f}s over {args.repeat} runs "
        "(wall clock, nondeterministic; no reference target)"
    )
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    # RSS moves with the allocator's reuse; the bytes one forward allocates do
    # not.  Imported here, so no other command pays for the import.
    import tracemalloc

    tracemalloc.start()
    try:
        autodiff.forward(g, params, x, keep={g.output_id})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"traced peak {peak / 2**20:.1f} MiB")
    tile, conv = analysis.largest_tile(g, args.batch)
    print(
        f"largest conv tile {tile / 2**20:.1f} MiB ({conv}); "
        f"TILE_BYTES {ops.TILE_BYTES / 2**20:.1f} MiB"
    )
    return 0


def _add_network_flags(p):
    p.add_argument("--arch", choices=graph.ARCHS)
    p.add_argument("--input", **_shape("CxTxHxW"), help="input shape (batch implied 1)")
    p.add_argument("--classes", **COUNT)
    p.add_argument("--width-mult", **RATE)
    p.add_argument("--config", help="architecture description file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lw3d")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[], help="parameter/FLOP report")
    _add_network_flags(p)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--include-bn-params", action="store_true")
    p.add_argument("--module", choices=tuple(graph.WIDTH_TABLE), help="one module's cost")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare-factorizations", help="factorization trade-offs")
    p.add_argument("--in", dest="in_channels", **COUNT, required=True)
    p.add_argument("--out", dest="out_channels", **COUNT, required=True)
    p.add_argument("--k", **KERNEL, default=3)
    p.add_argument("--sites", **_shape("TxHxW"), default=graph.SITES_4B, help="output sites")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_compare_factorizations)

    p = sub.add_parser("fuse", help="merge two streams' score CSVs")
    p.add_argument("--scores-a", required=True)
    p.add_argument("--scores-b", required=True)
    p.add_argument("--labels")
    p.add_argument("--strategy", choices=(fusion.MS1, fusion.MS2), default=fusion.MS1)
    p.add_argument("--acc-a", **ACCURACY)
    p.add_argument("--acc-b", **ACCURACY)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("synth-data", help="generate a synthetic labeled dataset")
    p.add_argument("--classes", **_bounded(int, "at least 2", lambda v: v >= 2), default=2)
    p.add_argument("--clips-per-class", **COUNT, default=8)
    p.add_argument("--shape", **_shape("CxTxHxW"), default=(3, 8, 32, 32))
    p.add_argument("--seed", **SEED, default=0)
    p.add_argument("--stream", choices=("rgb", "depth"), default="rgb")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--op", required=True, choices=gradcheck.OPS)
    p.add_argument("--trials", **COUNT, default=20)
    p.add_argument("--seed", **SEED, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="toy-scale training on a clip manifest")
    _add_network_flags(p)
    cfg = autodiff.TrainConfig
    p.add_argument("--epochs", **COUNT, default=cfg.epochs)
    p.add_argument("--batch", **COUNT, default=cfg.batch_size)
    p.add_argument("--lr", **RATE, default=cfg.learning_rate)
    p.add_argument("--patience", **COUNT, default=cfg.plateau_patience)
    p.add_argument("--seed", **SEED, default=7)
    p.add_argument("--data", required=True, help="manifest, e.g. from synth-data")
    p.add_argument("--save-weights", **OUT_FILE)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("infer", help="score clips with a weight file")
    _add_network_flags(p)
    p.add_argument("--weights")
    clips = p.add_mutually_exclusive_group(required=True)
    clips.add_argument("--tensor", help="single clip tensor file")
    clips.add_argument("--manifest", help="manifest of clips")
    p.add_argument("--windows", **COUNT, default=4)
    p.add_argument("--seed", **SEED, default=0)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="forward wall-clock timing")
    _add_network_flags(p)
    p.add_argument("--batch", **COUNT, default=4)
    p.add_argument("--repeat", **COUNT, default=5)
    p.add_argument("--seed", **SEED, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # raises ValueError on a bad flag value
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"lw3d: error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
