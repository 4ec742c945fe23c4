import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from lw3d import tensor
from lw3d.analysis import module_cost
from lw3d.autodiff import init_params, save_weights
from lw3d.cli import build_parser, main
from lw3d.dataio import synth_clip, synth_dataset
from lw3d.graph import ARCHS, WIDTH_TABLE, InceptionWidths, build_network
from lw3d.tensor import Shape5, Tensor5D


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_commands() -> list[str]:
    """Each ``lw3d ...`` command of README's "CLI examples" block, with its
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("lw3d ")]


def test_readme_examples_parse():
    """A flag renamed or removed in the CLI fails here, not in the docs."""
    commands = readme_commands()
    assert len(commands) == 8
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])


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

    def test_train_toy_without_data_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # synth-data is the one writer of a dataset; train-toy only reads one
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            main(["train-toy", *TOY_NET, "--epochs", "1"])
        assert e.value.code == 1
        assert "--data" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_analyze_without_arch_is_data_error(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2
        assert "--arch" in err


TOY_NET = (
    "--arch", "gsst", "--input", "3x8x32x32", "--classes", "2", "--width-mult", "0.125",
)


def toy_manifest(tmp_path) -> str:
    """A two-clip dataset that fits TOY_NET, as synth-data writes it."""
    synth_dataset(2, 1, (3, 8, 32, 32), 0, str(tmp_path / "data"))
    return str(tmp_path / "data" / "manifest.tsv")


class TestNonPositiveCounts:
    """Counts of zero or below are rejected where they enter, with exit 2,
    instead of checking nothing, scoring nothing or being replaced."""

    def test_gradcheck_zero_trials(self, capsys):
        code, out, err = run(capsys, "gradcheck", "--op", "relu", "--trials", "0")
        assert code == 2
        assert "--trials must be at least 1, got 0" in err
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
        assert "--classes must be at least 1, got 0" in err

    def test_zero_classes_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "net.ini"
        cfg.write_text("[network]\narch = i3d\ninput = 3x32x224x224\nclasses = 60\n")
        code, _, err = run(capsys, "analyze", "--config", str(cfg), "--classes", "0")
        assert code == 2
        assert "--classes must be at least 1, got 0" in err

    def test_negative_width_multiplier(self, capsys):
        code, _, err = run(capsys, "analyze", "--arch", "i3d", "--width-mult", "-1")
        assert code == 2
        assert "--width-mult must be positive and finite, got -1.0" in err

    def test_train_toy_zero_batch(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "train-toy", *TOY_NET, "--batch", "0", "--epochs", "1",
            "--data", toy_manifest(tmp_path),
        )
        assert code == 2
        assert "--batch must be at least 1, got 0" in err

    def test_train_toy_zero_epochs(self, capsys, tmp_path):
        weights = tmp_path / "w.lw3d"
        code, out, err = run(
            capsys, "train-toy", *TOY_NET, "--epochs", "0", "--data", toy_manifest(tmp_path),
            "--save-weights", str(weights),
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
        [(("synth-data", "--classes", "1"), "--classes must be at least 2, got 1")],
        ids=["synth-data-one-class"],
    )
    def test_generated_dataset_counts_name_the_flag(self, capsys, tmp_path, argv, message):
        out_dir = tmp_path / "data"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 2
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""
        assert not out_dir.exists()

    # every count and rate flag of every subcommand, each just out of bounds
    BOUNDS_CORPUS = [
        (("analyze", "--arch", "i3d"), "--classes", "0", "at least 1, got 0"),
        (("analyze", "--arch", "i3d"), "--width-mult", "0", "positive and finite, got 0.0"),
        (("analyze", "--arch", "i3d"), "--width-mult", "inf", "positive and finite, got inf"),
        (("synth-data",), "--classes", "1", "at least 2, got 1"),
        (("synth-data",), "--clips-per-class", "0", "at least 1, got 0"),
        (("gradcheck", "--op", "relu"), "--trials", "0", "at least 1, got 0"),
        (("train-toy", *TOY_NET), "--classes", "0", "at least 1, got 0"),
        (("train-toy", *TOY_NET), "--batch", "0", "at least 1, got 0"),
        (("train-toy", *TOY_NET), "--epochs", "0", "at least 1, got 0"),
        (("train-toy", *TOY_NET), "--patience", "0", "at least 1, got 0"),
        (("train-toy", *TOY_NET), "--lr", "0", "positive and finite, got 0.0"),
        (("train-toy", *TOY_NET), "--lr", "nan", "positive and finite, got nan"),
        (("train-toy", *TOY_NET), "--width-mult", "nan", "positive and finite, got nan"),
        (("infer", *TOY_NET, "--tensor", "x.lw3d"), "--classes", "0", "at least 1, got 0"),
        (("infer", *TOY_NET, "--tensor", "x.lw3d"), "--windows", "0", "at least 1, got 0"),
        (("infer", *TOY_NET, "--tensor", "x.lw3d"), "--width-mult", "-1",
         "positive and finite, got -1.0"),
        (("bench", *TOY_NET), "--classes", "0", "at least 1, got 0"),
        (("bench", *TOY_NET), "--batch", "0", "at least 1, got 0"),
        (("bench", *TOY_NET), "--repeat", "0", "at least 1, got 0"),
        (("bench", *TOY_NET), "--width-mult", "nan", "positive and finite, got nan"),
    ]

    @pytest.mark.parametrize(
        "argv,flag,value,message", BOUNDS_CORPUS,
        ids=[f"{a[0]}{flag}={v}" for a, flag, v, _ in BOUNDS_CORPUS],
    )
    def test_bounds_corpus(self, capsys, tmp_path, monkeypatch, argv, flag, value, message):
        """Each fault exits 2 with one line naming the flag and writes nothing."""
        monkeypatch.chdir(tmp_path)
        if argv[0] == "synth-data":
            argv = (*argv, "--out", "data")
        if argv[0] == "train-toy":
            argv = (*argv, "--data", "m.tsv", "--save-weights", "w.lw3d")
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 2
        assert err.strip() == f"lw3d: error: {flag} must be {message}"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

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
    # clip.lw3d fits TOY_NET, but TOY_NET has two classes
    "label-2.tsv": "clip.lw3d\t0\trgb\ts\nclip.lw3d\t2\trgb\ts\n",
    "small-input.ini": "[network]\narch = i3d\ninput = 3x4x4x4\n",
    "bad-arch.ini": "[network]\narch = foo\ninput = 3x8x32x32\n",
    "zero-width.ini": "[network]\narch = gsst\ninput = 3x8x32x32\n[widths.4b]\n"
    "b1 = 0\nb2_reduce = 0\nb2_out = 0\nb3_reduce = 0\nb3_out = 0\nb4_proj = 0\n",
    "zero-width-mult.ini": "[network]\narch = gsst\ninput = 3x8x32x32\nwidth_mult = 0\n",
    "nan.csv": "0.5,0.5\nnan,0.5\n",
    "inf.csv": "0.5,0.5\n0.5,inf\n",
}
# a well-formed score file, for the fuse inputs that are not under test
SCORES = "scores.csv"
# a well-formed clip, which the manifests above name
CLIP = "clip.lw3d"


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
        ("label-2.tsv", ("train-toy", *TOY_NET, "--data")),
        # from here on a flag's value is at fault, and the flag is named
        ("--input", ("analyze", "--arch", "i3d", "--input", "3x0x4x4")),
        ("--input", ("infer", "--arch", "gsst", "--tensor", CLIP, "--input", "3xax4x4")),
        ("--input", ("bench", "--arch", "gsst", "--input", "3x8x32")),
        ("--shape", ("synth-data", "--out", "data", "--shape", "3x0x4x4")),
        ("--seed", ("synth-data", "--out", "data", "--seed", "-1")),
        ("--sites", ("compare-factorizations", "--in", "4", "--out", "4", "--sites", "0x1x1")),
        ("--sites", ("compare-factorizations", "--in", "4", "--out", "4", "--sites", "8x14")),
        ("--in", ("compare-factorizations", "--out", "4", "--in", "0")),
        ("--out", ("compare-factorizations", "--in", "4", "--out", "0")),
        ("--k", ("compare-factorizations", "--in", "4", "--out", "4", "--k", "2")),
        ("--acc-a", ("fuse", "--scores-a", SCORES, "--scores-b", SCORES, "--strategy", "ms2",
                     "--acc-b", "0.9", "--acc-a", "1.5")),
        ("--seed", ("gradcheck", "--op", "relu", "--seed", "-1")),
        ("--seed", ("train-toy", *TOY_NET, "--data", "m.tsv", "--seed", "-1")),
        ("--seed", ("infer", *TOY_NET, "--tensor", CLIP, "--seed", "-1")),
        # new cases go last: a case's id holds its position in this list
        ("small-input.ini", ("analyze", "--config")),
        ("--input", ("analyze", "--arch", "i3d", "--input", "3x4x4x4")),
        # checked before the manifest is read, not after training
        ("--save-weights", ("train-toy", *TOY_NET, "--data", "m.tsv",
                            "--save-weights", "missing/w.lw3d")),
        ("--save-weights", ("train-toy", *TOY_NET, "--data", "m.tsv", "--save-weights", ".")),
        ("bad-arch.ini", ("analyze", "--config")),
        ("zero-width.ini", ("analyze", "--config")),
        ("zero-width-mult.ini", ("analyze", "--config")),
        ("nan.csv", ("fuse", "--scores-b", SCORES, "--scores-a")),
        ("inf.csv", ("fuse", "--scores-a", SCORES, "--scores-b")),
    ],
)
def test_malformed_file_is_one_line_data_error(capsys, tmp_path, monkeypatch, name, argv):
    """A malformed file or flag value, in every subcommand, exits 2 with one
    stderr line that names the file or the flag, and prints and writes nothing."""
    monkeypatch.chdir(tmp_path)
    tensor.save_tensor(CLIP, synth_clip(0, 2, (3, 8, 32, 32), np.random.default_rng(0)))
    (tmp_path / SCORES).write_text("0.5,0.5\n0.4,0.6\n")
    if name in MALFORMED_CORPUS:
        (tmp_path / name).write_text(MALFORMED_CORPUS[name])
        argv = (*argv, name)
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert name in err
    if name.endswith(".csv"):
        assert ": line 2: " in err  # every csv fault sits on its second line
    if name.startswith("--"):
        assert err.startswith(f"lw3d: error: {name} must be ")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv,source",
    [
        (("--arch", "i3d", "--input", "3x4x4x4"),
         "--input must be a shape i3d fits, got '3x4x4x4'"),
        (("--config", "small-input.ini"),
         "small-input.ini: [network] input 3x4x4x4 does not fit i3d"),
    ],
    ids=["flag", "config"],
)
def test_too_small_input_names_its_source_and_the_layer(capsys, tmp_path, monkeypatch,
                                                       argv, source):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small-input.ini").write_text(MALFORMED_CORPUS["small-input.ini"])
    code, out, err = run(capsys, "analyze", *argv)
    assert code == 2
    assert err.strip() == (
        f"lw3d: error: {source}: shape inference failed at 'maxp4': nonpositive pool "
        "output extent [0, 0, 0] for input (1, 832, 1, 1, 1)"
    )


NARROW_4C = InceptionWidths(8, 8, 16, 8, 16, 8)


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

    def test_module_without_arch_costs_i3d(self, capsys):
        # README: with neither --arch nor --config, --module costs i3d's module
        code, out, _ = run(capsys, "analyze", "--module", "4b")
        assert code == 0
        assert out == run(capsys, "analyze", "--arch", "i3d", "--module", "4b")[1]
        assert out.startswith("module 4b (i3d)\n")

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


    @pytest.mark.parametrize("arch", ARCHS)
    def test_module_cost_at_the_network_input(self, capsys, arch):
        """--module M costs M at the channels and sites it meets in the network."""
        g = build_network(arch, Shape5(1, 3, 32, 224, 224))
        shapes = g.shapes
        for module in WIDTH_TABLE:
            first = next(l for l in g.layers if l.id.startswith(module + "."))
            x = shapes[first.inputs[0]]
            cost = module_cost(arch, module, x.c, (x.t, x.h, x.w))
            code, out, _ = run(capsys, "analyze", "--arch", arch, "--module", module)
            assert code == 0
            assert out.splitlines() == [
                f"module {module} ({arch})",
                f"params {cost['params']}  flops {cost['flops']}",
                f"stage-one params {cost['stage_one_params']}  "
                f"stage-two params {cost['stage_two_params']}",
            ]
        if arch == "i3d":  # 3b meets 192 channels at 16x28x28, not 480 at 8x14x14
            assert module_cost(arch, "3b", 192, (16, 28, 28))["params"] == 385_536

    @pytest.mark.parametrize(
        "flags,network",
        [
            (("--width-mult", "0.5"), {"width_mult": 0.5}),
            (("--input", "3x8x64x64"), {"input_shape": Shape5(1, 3, 8, 64, 64)}),
            (("--config", "net.ini"), {"width_overrides": {"4c": NARROW_4C}}),
        ],
        ids=["width-mult", "input", "config-widths"],
    )
    def test_module_cost_follows_the_network_flags(
        self, capsys, tmp_path, monkeypatch, flags, network
    ):
        monkeypatch.chdir(tmp_path)
        widths = "".join(f"{k} = {v}\n" for k, v in NARROW_4C._asdict().items())
        (tmp_path / "net.ini").write_text(
            f"[network]\narch = sst\ninput = 3x32x224x224\n[widths.4c]\n{widths}"
        )
        code, out, _ = run(capsys, "analyze", "--arch", "sst", *flags, "--module", "4c")
        assert code == 0
        _, default, _ = run(capsys, "analyze", "--arch", "sst", "--module", "4c")
        assert out != default
        g = build_network("sst", **{"input_shape": Shape5(1, 3, 32, 224, 224), **network})
        params = sum(
            l.params.param_count for l in g.layers
            if l.kind == "conv" and l.id.startswith("4c.")
        )
        assert f"params {params}  flops " in out


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

    @staticmethod
    def fuse_fault(capsys, tmp_path, *argv, a="0.9,0.1\n0.2,0.8\n", b=None, labels=None):
        """Run fuse on score files a.csv and b.csv (b defaults to a's text) and
        an optional y.csv; the fault must be one stderr line, exit 2, no rows."""
        (tmp_path / "a.csv").write_text(a)
        (tmp_path / "b.csv").write_text(a if b is None else b)
        argv = ("--scores-a", str(tmp_path / "a.csv"), "--scores-b", str(tmp_path / "b.csv"),
                *argv)
        if labels is not None:
            (tmp_path / "y.csv").write_text(labels)
            argv = (*argv, "--labels", str(tmp_path / "y.csv"))
        code, out, err = run(capsys, "fuse", *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        return err.strip()

    def test_ms2_without_accuracies_names_the_flags(self, capsys, tmp_path):
        err = self.fuse_fault(capsys, tmp_path, "--strategy", "ms2", "--acc-a", "0.9")
        assert err == "lw3d: error: --strategy ms2 requires --acc-b"
        err = self.fuse_fault(capsys, tmp_path, "--strategy", "ms2")
        assert err == "lw3d: error: --strategy ms2 requires --acc-a and --acc-b"

    def test_score_shapes_differ_names_both_files(self, capsys, tmp_path):
        err = self.fuse_fault(capsys, tmp_path, b="0.2,0.3,0.5\n")
        assert err == (
            f"lw3d: error: score shapes differ: {tmp_path / 'a.csv'} is 2x2, "
            f"{tmp_path / 'b.csv'} is 1x3"
        )

    def test_label_count_names_the_labels_file(self, capsys, tmp_path):
        err = self.fuse_fault(capsys, tmp_path, labels="0\n1\n1\n")
        assert err == f"lw3d: error: {tmp_path / 'y.csv'}: 3 labels for 2 score rows"

    @pytest.mark.parametrize("label", ["5", "-1", "2"])
    def test_label_outside_the_classes_names_file_and_line(self, capsys, tmp_path, label):
        err = self.fuse_fault(capsys, tmp_path, labels=f"0\n{label}\n")
        assert err == (
            f"lw3d: error: {tmp_path / 'y.csv'}: line 2: label {label} is not one of "
            "the 2 classes"
        )

    @pytest.mark.parametrize(
        "cell,fault",
        [("nan", "a finite number"), ("inf", "a finite number"), ("-inf", "a finite number"),
         ("1e999", "a finite number"), ("x", "a number")],
    )
    def test_bad_score_names_file_and_line(self, capsys, tmp_path, cell, fault):
        err = self.fuse_fault(capsys, tmp_path, b=f"0.9,0.1\n0.2,{cell}\n")
        assert err == f"lw3d: error: {tmp_path / 'b.csv'}: line 2: score '{cell}' is not {fault}"

    def test_label_row_with_extra_cells_names_file_and_line(self, capsys, tmp_path):
        err = self.fuse_fault(capsys, tmp_path, labels="0,7\n1,x\n")
        assert err == f"lw3d: error: {tmp_path / 'y.csv'}: line 1: expected one label, got 2 cells"


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

    def test_infer_rejects_nan_bn_variance(self, capsys, tmp_path):
        """Without the check, infer prints nan,nan and exits 0."""
        data = tmp_path / "clip.lw3d"
        tensor.save_tensor(data, synth_clip(0, 2, (3, 8, 32, 32), np.random.default_rng(0)))
        g = build_network("gsst", Shape5(1, 3, 8, 32, 32), 2, 0.125)
        p = init_params(g, 0)
        p.bn["conv1.spatial.bn"].var[0] = np.nan
        weights = tmp_path / "w.bin"
        save_weights(weights, g, p)
        code, out, err = run(
            capsys, "infer", "--arch", "gsst", "--input", "3x8x32x32",
            "--classes", "2", "--width-mult", "0.125",
            "--weights", str(weights), "--tensor", str(data),
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"lw3d: error: {weights}: layer 'conv1.spatial.bn': "
            "bn record holds a non-finite value\n"
        )

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
        with pytest.raises(SystemExit) as e:
            main(["infer", "--arch", "i3d"])
        assert e.value.code == 1
        assert "one of the arguments --tensor --manifest is required" in capsys.readouterr().err

    def test_infer_takes_one_clip_source(self, capsys):
        # scoring only the manifest would drop the tensor without a word
        with pytest.raises(SystemExit) as e:
            main(["infer", "--arch", "i3d", "--tensor", "a.lw3d", "--manifest", "m.tsv"])
        assert e.value.code == 1
        assert "--manifest: not allowed with argument --tensor" in capsys.readouterr().err


class TestClipShapeContract:
    """Every clip a command reads goes through ``dataio.load_clip`` and must fit
    the network input: C, H and W always, T as well for training (``infer``
    samples its windows to length)."""

    @staticmethod
    def dataset(tmp_path, shape, stream="rgb"):
        records = synth_dataset(2, 1, shape, 0, str(tmp_path / "data"), stream)
        return records, str(tmp_path / "data" / "manifest.tsv")

    @pytest.mark.parametrize(
        "shape", [(3, 8, 64, 64), (3, 16, 32, 32), (2, 8, 32, 32)], ids=["hw", "t", "c"]
    )
    def test_train_toy_rejects_clip_that_does_not_fit(self, capsys, tmp_path, shape):
        records, manifest = self.dataset(tmp_path, shape)
        weights = tmp_path / "w.lw3d"
        code, out, err = run(
            capsys, "train-toy", *TOY_NET, "--epochs", "1", "--data", manifest,
            "--save-weights", str(weights),
        )
        assert code == 2
        assert err.startswith(f"lw3d: error: {records[0].path}: clip ")
        assert len(err.strip().splitlines()) == 1
        assert out == ""
        assert not weights.exists()

    def test_train_toy_names_manifest_and_clip_of_a_label_outside_the_classes(
        self, capsys, tmp_path
    ):
        records = synth_dataset(3, 1, (3, 8, 32, 32), 0, str(tmp_path / "data"))
        manifest = str(tmp_path / "data" / "manifest.tsv")
        weights = tmp_path / "w.lw3d"
        code, out, err = run(
            capsys, "train-toy", *TOY_NET, "--data", manifest, "--save-weights", str(weights)
        )
        assert code == 2
        assert err == (
            f"lw3d: error: {manifest}: {records[2].path}: label 2 is not one of the "
            "network's 2 classes\n"
        )
        assert out == ""
        assert not weights.exists()

    @pytest.mark.parametrize("source", ["--manifest", "--tensor"])
    @pytest.mark.parametrize("shape", [(3, 8, 64, 64), (2, 8, 32, 32)], ids=["hw", "c"])
    def test_infer_rejects_clip_that_does_not_fit(self, capsys, tmp_path, source, shape):
        records, manifest = self.dataset(tmp_path, shape)
        path = manifest if source == "--manifest" else records[0].path
        code, out, err = run(capsys, "infer", *TOY_NET, source, path)
        assert code == 2
        assert err.startswith(f"lw3d: error: {records[0].path}: clip ")
        assert len(err.strip().splitlines()) == 1
        assert out == ""

    @pytest.mark.parametrize("source", ["--manifest", "--tensor"])
    def test_infer_accepts_any_clip_length(self, capsys, tmp_path, source):
        records, manifest = self.dataset(tmp_path, (3, 16, 32, 32))
        path = manifest if source == "--manifest" else records[0].path
        code, out, _ = run(capsys, "infer", *TOY_NET, source, path, "--windows", "1")
        assert code == 0
        assert len(out.splitlines()) == (len(records) if source == "--manifest" else 1)

    @pytest.mark.parametrize(
        "command", ["train-toy --data", "infer --manifest", "infer --tensor"]
    )
    def test_file_holding_two_clips_is_rejected(self, capsys, tmp_path, command):
        # one label per file, so a second clip would train unlabelled or go unscored
        records, manifest = self.dataset(tmp_path, (3, 8, 32, 32))
        two = tensor.load_tensor(records[0].path).data.repeat(2, axis=0)
        tensor.save_tensor(records[0].path, Tensor5D(two))
        sub, source = command.split()
        path = records[0].path if source == "--tensor" else manifest
        code, out, err = run(capsys, sub, *TOY_NET, source, path)
        assert code == 2
        assert err.startswith(f"lw3d: error: {records[0].path}: clip (2, 3, 8, 32, 32) ")
        assert len(err.strip().splitlines()) == 1
        assert out == ""

    def test_infer_tensor_reads_depth_clip_as_manifest_does(self, capsys, tmp_path):
        records, manifest = self.dataset(tmp_path, (1, 8, 32, 32), "depth")
        code, by_manifest, _ = run(capsys, "infer", *TOY_NET, "--manifest", manifest)
        assert code == 0
        code, by_tensor, err = run(capsys, "infer", *TOY_NET, "--tensor", records[0].path)
        assert (code, err) == (0, "")
        assert by_tensor.splitlines() == by_manifest.splitlines()[:1]


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
        assert re.search(r"^peak RSS \d+\.\d MB$", out, re.M)
