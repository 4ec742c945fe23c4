import json

import numpy as np
import pytest

from lw3d import tensor
from lw3d.cli import main
from lw3d.dataio import synth_clip


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["compare-factorizations", "--in", "4"])
        assert e.value.code == 1

    def test_data_error_is_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "infer", "--arch", "i3d", "--tensor", str(tmp_path / "missing.lw3d")
        )
        assert code == 2
        assert "error" in err

    def test_analyze_without_arch_is_data_error(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2
        assert "--arch" in err


TOY_NET = (
    "--arch", "gsst", "--input", "3x8x32x32", "--classes", "2", "--width-mult", "0.125",
)


class TestNonPositiveCounts:
    """Counts of zero or below are rejected where they enter, with exit 2,
    instead of checking nothing, scoring nothing or being replaced."""

    def test_gradcheck_zero_trials(self, capsys):
        code, out, err = run(capsys, "gradcheck", "--op", "relu", "--trials", "0")
        assert code == 2
        assert "at least one trial" in err
        assert out == ""

    def test_infer_zero_windows(self, capsys, tmp_path):
        data = tmp_path / "clip.lw3d"
        clip = synth_clip(0, 2, (3, 8, 32, 32), np.random.default_rng(0))
        tensor.save_tensor(data, clip)
        code, out, err = run(
            capsys, "infer", *TOY_NET, "--tensor", str(data), "--windows", "0"
        )
        assert code == 2
        assert "--windows" in err
        assert out == ""

    def test_zero_classes(self, capsys):
        code, _, err = run(capsys, "analyze", "--arch", "i3d", "--classes", "0")
        assert code == 2
        assert "at least one class" in err

    def test_zero_classes_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "net.ini"
        cfg.write_text("[network]\narch = i3d\ninput = 3x32x224x224\nclasses = 60\n")
        code, _, err = run(capsys, "analyze", "--config", str(cfg), "--classes", "0")
        assert code == 2
        assert "at least one class" in err

    def test_negative_width_multiplier(self, capsys):
        code, _, err = run(capsys, "analyze", "--arch", "i3d", "--width-mult", "-1")
        assert code == 2
        assert "width multiplier" in err

    def test_train_toy_zero_batch(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "train-toy", *TOY_NET, "--batch", "0", "--epochs", "1",
            "--clips-per-class", "1", "--out-dir", str(tmp_path / "data"),
        )
        assert code == 2
        assert "batch size" in err

    def test_train_toy_zero_epochs(self, capsys, tmp_path):
        weights = tmp_path / "w.lw3d"
        code, out, err = run(
            capsys, "train-toy", *TOY_NET, "--epochs", "0", "--clips-per-class", "1",
            "--out-dir", str(tmp_path / "data"), "--save-weights", str(weights),
        )
        assert code == 2
        assert "epochs must be at least 1, got 0" in err
        assert out == ""
        assert not weights.exists()

    def test_bench_zero_repeat(self, capsys):
        code, out, err = run(capsys, "bench", *TOY_NET, "--repeat", "0")
        assert code == 2
        assert "--repeat" in err
        assert out == ""

    def test_bench_zero_batch(self, capsys):
        code, out, err = run(capsys, "bench", *TOY_NET, "--batch", "0")
        assert code == 2
        assert "--batch must be at least 1, got 0" in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""

    def test_synth_data_zero_clips_per_class(self, capsys, tmp_path):
        out_dir = tmp_path / "data"
        code, out, err = run(
            capsys, "synth-data", "--clips-per-class", "0", "--out", str(out_dir)
        )
        assert code == 2
        assert "--clips-per-class must be at least 1, got 0" in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("train-toy", *TOY_NET, "--clips-per-class", "0"),
             "--clips-per-class must be at least 1, got 0"),
            (("train-toy", *TOY_NET, "--classes", "1"), "--classes must be at least 2, got 1"),
            (("synth-data", "--classes", "1"), "--classes must be at least 2, got 1"),
        ],
        ids=["train-toy-zero-clips", "train-toy-one-class", "synth-data-one-class"],
    )
    def test_generated_dataset_counts_name_the_flag(self, capsys, tmp_path, argv, message):
        out_dir = tmp_path / "data"
        flag = "--out" if argv[0] == "synth-data" else "--out-dir"
        code, out, err = run(capsys, *argv, flag, str(out_dir))
        assert code == 2
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""
        assert not out_dir.exists()

    def test_fuse_empty_score_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, out, err = run(
            capsys, "fuse", "--scores-a", str(empty), "--scores-b", str(empty)
        )
        assert code == 2
        assert f"{empty}: no score rows" in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""


MALFORMED_CORPUS = {
    "no-arch.ini": "[network]\ninput = 3x8x32x32\n",
    "no-header.ini": "arch = gsst\ninput = 3x8x32x32\n",
    "two-fields.tsv": "clip.lw3d\t0\n",
    "empty.tsv": "",
    "ragged.csv": "0.5,0.5\n0.5\n",
    "non-numeric.csv": "0.5,0.5\nx,0.5\n",
    "non-integer-labels.csv": "0\nx\n",
}
# a well-formed score file, for the fuse inputs that are not under test
SCORES = "scores.csv"


@pytest.mark.parametrize(
    "name,argv",
    [
        ("no-arch.ini", ("analyze", "--config")),
        ("no-header.ini", ("analyze", "--config")),
        ("two-fields.tsv", ("infer", *TOY_NET, "--manifest")),
        ("two-fields.tsv", ("train-toy", *TOY_NET, "--data")),
        ("empty.tsv", ("infer", *TOY_NET, "--manifest")),
        ("empty.tsv", ("train-toy", *TOY_NET, "--data")),
        ("ragged.csv", ("fuse", "--scores-b", SCORES, "--scores-a")),
        ("non-numeric.csv", ("fuse", "--scores-a", SCORES, "--scores-b")),
        (
            "non-integer-labels.csv",
            ("fuse", "--scores-a", SCORES, "--scores-b", SCORES, "--labels"),
        ),
    ],
)
def test_malformed_file_is_one_line_data_error(capsys, tmp_path, name, argv):
    path = tmp_path / name
    path.write_text(MALFORMED_CORPUS[name])
    (tmp_path / SCORES).write_text("0.5,0.5\n0.4,0.6\n")
    argv = [str(tmp_path / a) if a == SCORES else a for a in argv]
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert str(path) in err
    if name.endswith(".csv"):
        assert ": line 2: " in err  # every csv fault sits on its second line
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


class TestAnalyze:
    def test_table_has_exact_cells(self, capsys):
        code, out, _ = run(capsys, "analyze", "--arch", "i3d")
        assert code == 0
        lines = out.splitlines()
        assert "Conv3 | 0.332 | 16.647" in lines
        assert "Total | 12.273 | 55.916" in lines

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--arch", "gsst", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"]["params"] == 1_769_248

    def test_module_path(self, capsys):
        code, out, _ = run(capsys, "analyze", "--arch", "sst", "--module", "4b")
        assert code == 0
        assert "params 204096" in out
        assert "stage-one params 52800" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "analyze", "--arch", "ist", "--format", "csv")
        _, second, _ = run(capsys, "analyze", "--arch", "ist", "--format", "csv")
        assert first == second

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "net.ini"
        cfg.write_text("[network]\narch = i3d\ninput = 3x32x224x224\nclasses = 60\n")
        code, out, _ = run(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        assert "Total | 12.273 | 55.916" in out.splitlines()


class TestCompareFactorizations:
    def test_table_marks_best(self, capsys):
        code, out, _ = run(
            capsys, "compare-factorizations", "--in", "96", "--out", "208"
        )
        assert code == 0
        marked = [l for l in out.splitlines() if "<- fewest parameters" in l]
        assert len(marked) == 1
        assert marked[0].startswith("spatial-first-widen-late | 142848 ")

    def test_json_best_label(self, capsys):
        code, out, _ = run(
            capsys, "compare-factorizations", "--in", "96", "--out", "208",
            "--format", "json",
        )
        assert json.loads(out)["best"] == "spatial-first-widen-late"


class TestFuse:
    def test_merge_and_accuracy(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        labels = tmp_path / "y.csv"
        a.write_text("0.9,0.1\n0.2,0.8\n")
        b.write_text("0.7,0.3\n0.4,0.6\n")
        labels.write_text("0\n1\n")
        code, out, _ = run(
            capsys, "fuse", "--scores-a", str(a), "--scores-b", str(b),
            "--labels", str(labels),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0.800000,0.200000"
        assert lines[-1] == "accuracy,1.000000"

    def test_gated_streams_fail_cleanly(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0.5,0.5\n")
        code, _, err = run(
            capsys, "fuse", "--scores-a", str(a), "--scores-b", str(a),
            "--strategy", "ms2", "--acc-a", "0.1", "--acc-b", "0.2",
        )
        assert code == 2
        assert "gated" in err


class TestGradcheck:
    def test_relu_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--op", "relu", "--trials", "3")
        assert code == 0
        assert "max relative gradient error" in out


class TestTrainInferRoundTrip:
    def test_synth_train_infer(self, capsys, tmp_path):
        data = tmp_path / "data"
        code, out, _ = run(
            capsys, "synth-data", "--classes", "2", "--clips-per-class", "2",
            "--shape", "3x8x32x32", "--out", str(data),
        )
        assert code == 0
        assert "wrote 4 clips" in out

        weights = tmp_path / "w.bin"
        code, out, _ = run(
            capsys, "train-toy", "--arch", "gsst", "--input", "3x8x32x32",
            "--classes", "2", "--width-mult", "0.125",
            "--data", str(data / "manifest.tsv"),
            "--epochs", "2", "--lr", "0.01", "--batch", "2",
            "--save-weights", str(weights),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epoch,loss,accuracy,lr"
        assert len(lines) == 3
        assert weights.exists()

        code, out, _ = run(
            capsys, "infer", "--arch", "gsst", "--input", "3x8x32x32",
            "--classes", "2", "--width-mult", "0.125",
            "--weights", str(weights), "--manifest", str(data / "manifest.tsv"),
            "--windows", "1",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()]
        assert len(rows) == 4
        for row in rows:
            assert len(row) == 2
            assert sum(float(v) for v in row) == pytest.approx(1.0, abs=1e-3)

    def test_infer_rejects_mismatched_weights(self, capsys, tmp_path):
        data = tmp_path / "clip.lw3d"
        clip = synth_clip(0, 2, (3, 8, 32, 32), np.random.default_rng(0))
        tensor.save_tensor(data, clip)
        weights = tmp_path / "w.bin"
        weights.write_bytes(b"")
        code, _, err = run(
            capsys, "infer", "--arch", "gsst", "--input", "3x8x32x32",
            "--classes", "2", "--width-mult", "0.125",
            "--weights", str(weights), "--tensor", str(data),
        )
        assert code == 2
        assert "conv1" in err

    def test_infer_rejects_short_tensor_file(self, capsys, tmp_path):
        data = tmp_path / "short.lw3d"
        data.write_bytes(b"LW3D\x01" + bytes(10))
        code, _, err = run(
            capsys, "infer", "--arch", "gsst", "--input", "3x8x32x32",
            "--classes", "2", "--width-mult", "0.125", "--tensor", str(data),
        )
        assert code == 2
        assert str(data) in err
        assert "Traceback" not in err

    def test_infer_requires_some_input(self, capsys):
        code, _, err = run(capsys, "infer", "--arch", "i3d")
        assert code == 2
        assert "--tensor or --manifest" in err


class TestBench:
    def test_reports_median_and_caveat(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--arch", "gsst", "--input", "3x8x32x32",
            "--classes", "2", "--width-mult", "0.125",
            "--batch", "1", "--repeat", "2",
        )
        assert code == 0
        assert "median forward" in out
        assert "nondeterministic" in out
