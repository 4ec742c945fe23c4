"""Synthetic clip generation, the clip manifest, clip loading and sampling.

All randomness flows through explicit seeds; record k of a dataset uses
seed ``global_seed ^ k`` so parallel and serial generation agree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import Tensor5D


@dataclass(frozen=True)
class ClipRecord:
    path: str
    label: int
    stream: str = "rgb"  # rgb | depth
    source: str = ""


def sample_clip(video: Tensor5D, length: int = 32, seed: int = 0) -> Tensor5D:
    """A uniformly random contiguous window of ``length`` frames; shorter
    videos are tiled cyclically until the length is reached."""
    t = video.t
    if t >= length:
        start = int(np.random.default_rng(seed).integers(0, t - length + 1))
        return Tensor5D(np.ascontiguousarray(video.data[:, :, start : start + length]))
    idx = np.arange(length) % t
    return Tensor5D(np.ascontiguousarray(video.data[:, :, idx]))


def synth_clip(
    label: int,
    classes: int,
    shape: tuple[int, int, int, int],
    rng: np.random.Generator,
) -> Tensor5D:
    """One synthetic clip: a bright blob drifting in a class-dependent
    direction at a class-dependent speed, plus mild noise."""
    c, t, h, w = shape
    angle = 2.0 * np.pi * label / max(classes, 1)
    speed = 0.25 + 0.5 * label / max(classes - 1, 1)
    dy, dx = np.sin(angle) * speed, np.cos(angle) * speed
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    cy0 = h / 2 + rng.uniform(-1, 1)
    cx0 = w / 2 + rng.uniform(-1, 1)
    sigma = max(2.0, min(h, w) / 6.0)
    frames = np.empty((c, t, h, w), dtype=np.float32)
    for k in range(t):
        cy = (cy0 + dy * k * h / max(t, 1)) % h
        cx = (cx0 + dx * k * w / max(t, 1)) % w
        blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2)))
        frames[:, k] = blob[None]
    frames += rng.normal(0.0, 0.05, size=frames.shape).astype(np.float32)
    return Tensor5D(frames[None])


def synth_dataset(
    classes: int,
    clips_per_class: int,
    shape: tuple[int, int, int, int],
    seed: int,
    out_dir: str,
    stream: str = "rgb",
) -> list[ClipRecord]:
    """Generate a balanced labeled dataset of tensor files plus a manifest."""
    if classes < 2:
        raise ValueError("need at least two classes")
    if clips_per_class < 1:
        raise ValueError(f"need at least one clip per class, got {clips_per_class}")
    os.makedirs(out_dir, exist_ok=True)
    records: list[ClipRecord] = []
    index = 0
    for label in range(classes):
        for j in range(clips_per_class):
            rng = np.random.default_rng(seed ^ index)
            clip = synth_clip(label, classes, shape, rng)
            path = os.path.join(out_dir, f"clip_{label:02d}_{j:03d}.lw3d")
            tensor.save_tensor(path, clip)
            records.append(ClipRecord(path, label, stream, f"synth-{index}"))
            index += 1
    write_manifest(os.path.join(out_dir, "manifest.tsv"), records)
    return records


def load_clip(record: ClipRecord) -> Tensor5D:
    """Load a clip; single-channel (depth) tensors replicate to 3 channels so
    every architecture keeps the same stem."""
    x = tensor.load_tensor(record.path)
    if x.c == 1:
        x = Tensor5D(np.repeat(x.data, 3, axis=1))
    return x


def write_manifest(path, records: list[ClipRecord]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(f"{r.path}\t{r.label}\t{r.stream}\t{r.source}\n")


def read_manifest(path) -> list[ClipRecord]:
    """Read ``path<TAB>label<TAB>stream<TAB>source`` lines; a malformed line
    raises a ValueError naming the file and the line, a manifest without
    records one naming the file."""
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 4 tab-separated fields "
                    f"(path, label, stream, source), got {len(fields)}"
                )
            p, label, stream, source = fields
            try:
                records.append(ClipRecord(p, int(label), stream, source))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: label {label!r} is not an integer"
                ) from None
    if not records:
        raise ValueError(f"{path}: no clip records")
    return records
