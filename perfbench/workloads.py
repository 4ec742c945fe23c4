"""The three lw3d workloads: what each generates and what one iteration runs.

Every iteration is a closed loop of in-process ``lw3d.cli.main`` calls made
the way a user types them; the program sees only the files ``generate``
wrote.  README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

from lw3d import autodiff, cli, dataio, graph
from lw3d.tensor import Shape5

# ms2 fusion needs each stream's held-out accuracy; fixed nominal values
# keep both streams above the 0.5 gate
STREAM_ACCURACY = {"rgb": 0.8, "depth": 0.7}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One ``lw3d`` command in-process; returns its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@dataclass(frozen=True)
class TrainSpec:
    arch: str
    input: str
    width_mult: str
    batch: int
    classes: int
    clips_per_class: int
    epochs: int
    lr: float = 0.01
    min_final_accuracy: float | None = None

    @property
    def clips(self) -> int:
        """Clips one iteration trains, every epoch counted."""
        return self.classes * self.clips_per_class * self.epochs

    def generate(self, seed: int, out: str) -> None:
        c, t, h, w = graph.parse_shape_arg(self.input)
        dataio.synth_dataset(self.classes, self.clips_per_class, (c, t, h, w), seed, out)

    def iterate(self, seed: int, out: str) -> dict[str, tuple[int, str]]:
        return {"train": run_cli([
            "train-toy", "--arch", self.arch, "--input", self.input,
            "--width-mult", self.width_mult, "--batch", str(self.batch),
            "--classes", str(self.classes), "--epochs", str(self.epochs),
            "--lr", str(self.lr), "--seed", str(seed),
            "--data", os.path.join(out, "manifest.tsv"),
        ])}


@dataclass(frozen=True)
class InferSpec:
    arch: str = "gsst"
    input: str = "3x16x112x112"
    width_mult: str = "1"
    classes: int = 4
    clips_per_class: int = 1
    clip_frames: int = 24
    windows: int = 4
    oracle_clips: tuple[tuple[str, int], ...] = (("rgb", 0), ("depth", -1))

    @property
    def clips(self) -> int:
        """Clips one iteration fully scores: both streams, fused."""
        return self.classes * self.clips_per_class

    def network(self) -> graph.ModuleGraph:
        c, t, h, w = graph.parse_shape_arg(self.input)
        return graph.build_network(
            self.arch, Shape5(1, c, t, h, w), self.classes, float(self.width_mult)
        )

    def generate(self, seed: int, out: str) -> None:
        """Per stream: synthetic clips, then weights initialised, calibrated on
        one window of the first clip and saved.  Uncalibrated width-1 scores
        sit within 1e-4 of uniform, which would make the oracle comparison
        vacuous."""
        c, _, h, w = graph.parse_shape_arg(self.input)
        g = self.network()
        for stream in ("rgb", "depth"):
            sseed = seed if stream == "rgb" else seed + 7919
            d = os.path.join(out, stream)
            records = dataio.synth_dataset(
                self.classes, self.clips_per_class,
                (c if stream == "rgb" else 1, self.clip_frames, h, w),
                sseed, d, stream,
            )
            params = autodiff.init_params(g, sseed)
            probe = dataio.sample_clip(dataio.load_clip(records[0]), g.input_shape.t, sseed)
            autodiff.calibrate_init(g, params, probe)
            autodiff.save_weights(os.path.join(d, "weights.lw3d"), g, params)

    def iterate(self, seed: int, out: str) -> dict[str, tuple[int, str]]:
        outputs, paths = {}, {}
        for stream in ("rgb", "depth"):
            d = os.path.join(out, stream)
            outputs[stream] = run_cli([
                "infer", "--arch", self.arch, "--input", self.input,
                "--width-mult", self.width_mult, "--classes", str(self.classes),
                "--weights", os.path.join(d, "weights.lw3d"),
                "--manifest", os.path.join(d, "manifest.tsv"),
                "--windows", str(self.windows), "--seed", str(seed),
            ])
            paths[stream] = os.path.join(out, f"scores_{stream}.csv")
            with open(paths[stream], "w", encoding="utf-8") as f:
                f.write(outputs[stream][1])
        outputs["fused"] = run_cli([
            "fuse", "--scores-a", paths["rgb"], "--scores-b", paths["depth"],
            "--strategy", "ms2",
            "--acc-a", str(STREAM_ACCURACY["rgb"]), "--acc-b", str(STREAM_ACCURACY["depth"]),
        ])
        return outputs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: TrainSpec | InferSpec
    # nominal length of one iteration on a 2-CPU host; a run of S seconds
    # makes round(S / iteration_s) iterations, at least one
    iteration_s: float


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "train-dense",
            "canonical-width i3d training; conv and max-pool backward dominate",
            TrainSpec("i3d", "3x16x64x64", "1", batch=2, classes=2,
                      clips_per_class=1, epochs=1),
            iteration_s=10.0,
        ),
        Workload(
            "train-toy",
            "acceptance toy gsst training; per-call overhead dominates",
            TrainSpec("gsst", "3x8x32x32", "0.125", batch=4, classes=2,
                      clips_per_class=8, epochs=50, min_final_accuracy=0.95),
            iteration_s=20.0,
        ),
        Workload(
            "infer-2stream",
            "two-stream gsst inference and ms2 fusion; forward only",
            InferSpec(),
            iteration_s=10.0,
        ),
    )
}
