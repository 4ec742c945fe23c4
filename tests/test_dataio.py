import numpy as np
import pytest

from lw3d import dataio, tensor
from lw3d.dataio import (
    ClipRecord,
    load_clip,
    read_manifest,
    sample_clip,
    synth_clip,
    synth_dataset,
    write_manifest,
)
from lw3d.tensor import Tensor5D


def frames_video(t, h=4, w=4):
    """Video whose frame k is constant k, so window choices are visible."""
    data = np.broadcast_to(
        np.arange(t, dtype=np.float32).reshape(1, 1, t, 1, 1), (1, 1, t, h, w)
    )
    return Tensor5D(np.ascontiguousarray(data))


class TestSampleClip:
    def test_window_is_contiguous(self):
        v = frames_video(10)
        out = sample_clip(v, length=4, seed=3)
        first = out.data[0, 0, :, 0, 0]
        assert np.array_equal(first, np.arange(first[0], first[0] + 4))

    def test_deterministic_per_seed(self):
        v = frames_video(40)
        assert sample_clip(v, 8, seed=5) == sample_clip(v, 8, seed=5)

    def test_short_video_tiles_cyclically(self):
        v = frames_video(3)
        out = sample_clip(v, length=8, seed=0)
        assert out.data[0, 0, :, 0, 0].tolist() == [0, 1, 2, 0, 1, 2, 0, 1]

    def test_exact_length_passthrough(self):
        v = frames_video(4)
        assert sample_clip(v, length=4, seed=9) == v


class TestSyntheticData:
    def test_clip_shape_and_range(self):
        clip = synth_clip(1, 4, (3, 8, 16, 16), np.random.default_rng(0))
        assert clip.shape == (1, 3, 8, 16, 16)
        assert float(clip.data.max()) > 0.5  # the blob is bright

    def test_dataset_round_trip(self, tmp_path):
        records = synth_dataset(2, 3, (3, 4, 8, 8), seed=5, out_dir=str(tmp_path))
        assert len(records) == 6
        assert sorted(r.label for r in records) == [0, 0, 0, 1, 1, 1]
        loaded = read_manifest(tmp_path / "manifest.tsv")
        assert loaded == records
        for r in records:
            assert load_clip(r).shape == (1, 3, 4, 8, 8)

    def test_per_record_seed_is_xor_of_global_seed_and_index(self, tmp_path):
        records = synth_dataset(2, 1, (1, 2, 6, 6), seed=9, out_dir=str(tmp_path))
        # record index 1 (class 1) regenerated stand-alone from seed 9^1
        redo = synth_clip(1, 2, (1, 2, 6, 6), np.random.default_rng(9 ^ 1))
        assert tensor.load_tensor(records[1].path) == redo

    def test_rejects_single_class(self, tmp_path):
        with pytest.raises(ValueError):
            synth_dataset(1, 2, (1, 2, 4, 4), 0, str(tmp_path))

    def test_rejects_no_clips_per_class_before_writing(self, tmp_path):
        # an empty manifest would be one its own read_manifest rejects
        out = tmp_path / "data"
        with pytest.raises(ValueError, match="at least one clip per class, got 0"):
            synth_dataset(2, 0, (1, 2, 4, 4), 0, str(out))
        assert not out.exists()

    def test_depth_clip_replicates_channels(self, tmp_path):
        clip = synth_clip(0, 2, (1, 2, 4, 4), np.random.default_rng(0))
        path = tmp_path / "d.lw3d"
        tensor.save_tensor(path, clip)
        x = load_clip(ClipRecord(str(path), 0, "depth"))
        assert x.c == 3
        assert np.array_equal(x.data[:, 0], x.data[:, 2])

    def test_classes_are_separable_by_nearest_mean(self, tmp_path):
        # a trivial nearest-class-mean classifier on raw pixels must beat
        # chance, otherwise the generator carries no label signal
        train = synth_dataset(2, 8, (1, 8, 12, 12), 3, str(tmp_path / "tr"))
        test = synth_dataset(2, 8, (1, 8, 12, 12), 77, str(tmp_path / "te"))
        means = {}
        for label in (0, 1):
            clips = [tensor.load_tensor(r.path).data for r in train if r.label == label]
            means[label] = np.mean(clips, axis=0)
        hits = 0
        for r in test:
            x = tensor.load_tensor(r.path).data
            pred = min(means, key=lambda l: float(((x - means[l]) ** 2).sum()))
            hits += pred == r.label
        assert hits / len(test) >= 0.75


class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        records = [
            ClipRecord("/data/a.lw3d", 0, "rgb", "synth-0"),
            ClipRecord("/data/b.lw3d", 7, "depth", ""),
        ]
        path = tmp_path / "m.tsv"
        write_manifest(path, records)
        assert read_manifest(path) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("/x.lw3d\t1\trgb\ts\n\n\n")
        assert read_manifest(path) == [ClipRecord("/x.lw3d", 1, "rgb", "s")]
