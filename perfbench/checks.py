"""Output checks, so that speed never passes with wrong numbers.

An operation is one CSV output row: one epoch row of ``train-toy`` or one
clip row of ``infer`` / ``fuse``.  A row fails when its command failed, when
it differs from the same row of the first iteration (same seed, same
inputs), or when it breaks the workload's rule:

- every epoch row has a finite loss; the last one of ``train-toy`` reaches
  the acceptance accuracy;
- every infer row is a probability vector, and the sampled clips match the
  scores recomputed through the ``ops.conv3d_direct`` oracle within 1e-4;
- every fused row equals the ms2 merge of the two streams' rows.
"""

from __future__ import annotations

import math
import os

import numpy as np

from lw3d import autodiff, dataio, fusion, ops
from workloads import STREAM_ACCURACY, InferSpec, TrainSpec

ORACLE_TOL = 1e-4
CSV_TOL = 1e-5  # scores are written with 6 decimals


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line]


def _floats(row) -> np.ndarray | None:
    try:
        v = np.array([float(x) for x in row], dtype=np.float64)
    except ValueError:
        return None
    return v if np.all(np.isfinite(v)) else None


def oracle_scores(spec: InferSpec, seed: int, data_dir: str) -> dict[tuple[str, int], np.ndarray]:
    """Scores of the sampled clips recomputed with every convolution routed
    through ``ops.conv3d_direct``; windows drawn as ``lw3d infer`` draws them."""
    g = spec.network()
    out = {}
    saved = ops.conv3d_lowered
    ops.conv3d_lowered = ops.conv3d_direct
    try:
        for stream, index in spec.oracle_clips:
            d = os.path.join(data_dir, stream)
            params = autodiff.load_weights(os.path.join(d, "weights.lw3d"), g)
            records = dataio.read_manifest(os.path.join(d, "manifest.tsv"))
            i = index % len(records)
            rng = np.random.default_rng(seed)
            draws = [int(rng.integers(0, 2**31 - 1)) for _ in range((i + 1) * spec.windows)]
            clip = dataio.load_clip(records[i])
            scores = np.zeros(spec.classes)
            for s in draws[i * spec.windows :]:
                win = dataio.sample_clip(clip, g.input_shape.t, s)
                scores += autodiff.predict_scores(g, autodiff.forward(g, params, win))[0]
            out[(stream, i)] = scores / spec.windows
    finally:
        ops.conv3d_lowered = saved
    return out


def oracle_problems(oracle: dict[tuple[str, int], np.ndarray], classes: int) -> list[str]:
    """The comparison is vacuous if the sampled scores sit at uniform."""
    return [
        f"oracle sample {key} is within 1e-3 of uniform scores"
        for key, s in oracle.items()
        if np.max(np.abs(s - 1.0 / classes)) <= 1e-3
    ]


def _train_row_ok(spec: TrainSpec, row, last: bool) -> bool:
    v = _floats(row)
    if v is None or len(v) != 4:
        return False
    if last and spec.min_final_accuracy is not None:
        return v[2] >= spec.min_final_accuracy
    return True


def _infer_row_ok(spec: InferSpec, row, oracle_row) -> bool:
    v = _floats(row)
    if v is None or len(v) != spec.classes:
        return False
    if np.any(v < 0) or abs(v.sum() - 1.0) > CSV_TOL:
        return False
    return oracle_row is None or np.max(np.abs(v - oracle_row)) <= ORACLE_TOL


def _fused_row_ok(spec: InferSpec, row, a, b) -> bool:
    v, va, vb = _floats(row), _floats(a), _floats(b)
    if v is None or va is None or vb is None or not len(v) == len(va) == len(vb) == spec.classes:
        return False
    want = fusion.tanh_weight(STREAM_ACCURACY["rgb"]) * va + fusion.tanh_weight(
        STREAM_ACCURACY["depth"]
    ) * vb
    return np.max(np.abs(v - want)) <= CSV_TOL


def count_failures(
    spec: TrainSpec | InferSpec,
    iterations: list[dict],
    reference: dict,
    oracle: dict[tuple[str, int], np.ndarray] | None = None,
) -> tuple[int, int]:
    """(attempted, failed) operations over the given iterations' outputs."""
    attempted = failed = 0
    if isinstance(spec, TrainSpec):
        ref = _rows(reference["train"][1])[1:]
        for out in iterations:
            rc, text = out["train"]
            rows = _rows(text)[1:]
            for k in range(spec.epochs):
                attempted += 1
                ok = (
                    rc == 0
                    and k < len(rows)
                    and k < len(ref)
                    and rows[k] == ref[k]
                    and _train_row_ok(spec, rows[k], k == spec.epochs - 1)
                )
                failed += not ok
        return attempted, failed
    oracle = oracle or {}
    refs = {label: _rows(reference[label][1]) for label in ("rgb", "depth", "fused")}
    for out in iterations:
        rows = {label: _rows(out[label][1]) for label in refs}
        for label in refs:
            rc = out[label][0]
            for k in range(spec.clips):
                attempted += 1
                if rc != 0 or k >= len(rows[label]) or k >= len(refs[label]):
                    failed += 1
                    continue
                row = rows[label][k]
                ok = row == refs[label][k]
                if label == "fused":
                    a, b = rows["rgb"], rows["depth"]
                    ok = ok and k < min(len(a), len(b)) and _fused_row_ok(spec, row, a[k], b[k])
                else:
                    ok = ok and _infer_row_ok(spec, row, oracle.get((label, k)))
                failed += not ok
    return attempted, failed


def final_train_row(text: str) -> tuple[float, float]:
    """(loss, accuracy) of the last epoch row, NaN when absent."""
    rows = _rows(text)[1:]
    v = _floats(rows[-1]) if rows else None
    return (float(v[1]), float(v[2])) if v is not None and len(v) == 4 else (math.nan, math.nan)
