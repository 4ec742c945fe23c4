import hashlib

import numpy as np
import pytest

from lw3d import graph
from lw3d.graph import (
    ARCHS,
    MODULE_GROUPS,
    WIDTH_TABLE,
    InceptionWidths,
    LayerSpec,
    ModuleGraph,
    ShapeError,
    SplitSpec,
    allocate_groups,
    build_inception_module,
    build_network,
    parse_network_config,
    parse_shape_arg,
    shuffle_group_count,
)
from lw3d.ops import PoolSpec
from lw3d.tensor import Shape5

CANONICAL = Shape5(1, 3, 32, 224, 224)


class TestWidthTable:
    def test_module_names_in_network_order(self):
        assert list(WIDTH_TABLE) == ["3b", "3c", "4b", "4c", "4d", "4e", "4f", "5b", "5c"]

    def test_4b_row(self):
        assert WIDTH_TABLE["4b"] == InceptionWidths(192, 96, 208, 16, 48, 64)

    def test_group_output_channels(self):
        # running channel counts after each module group
        channels = {}
        c = 192
        for group, mods in MODULE_GROUPS.items():
            for mod in mods:
                c = WIDTH_TABLE[mod].out_channels
            channels[group] = c
        assert channels == {"mg3": 480, "mg4": 832, "mg5": 1024}

    def test_scaled_keeps_minimum_width(self):
        w = WIDTH_TABLE["3b"].scaled(0.01)
        assert min(w) == 1


class TestAllocateGroups:
    def test_canonical_4b_allocation(self):
        alloc = allocate_groups(16, (192, 208, 48, 64), in_channels=480)
        assert alloc.groups_per_path == (6, 6, 2, 2)
        assert alloc.channels_per_path == (180, 180, 60, 60)

    def test_equal_capacities(self):
        assert allocate_groups(4, (5, 5, 5, 5)).groups_per_path == (1, 1, 1, 1)

    def test_floor_guarantee(self):
        alloc = allocate_groups(16, (1, 1, 1, 13))
        assert sum(alloc.groups_per_path) == 16
        assert min(alloc.groups_per_path) >= 1

    def test_remainder_tie_goes_to_later_branch(self):
        # quotas (6.0, 6.5, 1.5, 2.0): the 0.5 tie between branches 2 and 3
        # must land on branch 3, otherwise the canonical (6,6,2,2) is lost
        alloc = allocate_groups(16, (192, 208, 48, 64))
        assert alloc.groups_per_path[2] == 2

    def test_conservation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            caps = tuple(int(rng.integers(1, 400)) for _ in range(4))
            n = int(rng.integers(4, 17))
            alloc = allocate_groups(n, caps)
            assert sum(alloc.groups_per_path) == n
            assert min(alloc.groups_per_path) >= 1

    def test_errors(self):
        with pytest.raises(ValueError):
            allocate_groups(3, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            allocate_groups(16, (0, 1, 1, 1))
        with pytest.raises(ValueError):
            allocate_groups(16, (1, 1, 1, 1), in_channels=100)


class TestShuffleGroupCount:
    def test_sixteen_for_canonical_inputs(self):
        for c in (192, 256, 480, 512, 832):
            assert shuffle_group_count(c) == 16

    def test_prefers_even_unit(self):
        # 528/16 = 33 is odd; 12 is the largest count with an even unit
        assert shuffle_group_count(528) == 12

    def test_fallback_divisor(self):
        assert shuffle_group_count(60) == 15
        assert shuffle_group_count(104) == 13

    def test_no_divisor_raises(self):
        with pytest.raises(ValueError):
            shuffle_group_count(17)


class TestBuildNetwork:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ValueError, match="unknown arch"):
            build_network("c3d", CANONICAL)

    def test_conv1_output_shape(self):
        g = build_network("i3d", CANONICAL)
        shapes = g.shapes
        assert shapes["conv1"] == Shape5(1, 64, 16, 112, 112)

    def test_factorized_stem_reaches_same_shape(self):
        for arch in ("ist", "sst", "gsst"):
            shapes = build_network(arch, CANONICAL).shapes
            assert shapes["conv1.temporal"] == Shape5(1, 64, 16, 112, 112)

    def test_pre_classifier_feature_map(self):
        for arch in ARCHS:
            g = build_network(arch, CANONICAL)
            shapes = g.shapes
            assert shapes["5c.concat"] == Shape5(1, 1024, 4, 7, 7)
            assert shapes["avgp"] == Shape5(1, 1024, 3, 1, 1)

    def test_classifier_channels(self):
        g = build_network("i3d", CANONICAL, num_classes=60)
        shapes = g.shapes
        assert shapes["classifier"].c == 60
        assert shapes[g.output_id].c == 60

    def test_sst_adds_one_shuffle_and_one_split_per_module(self):
        ist = build_network("ist", CANONICAL)
        sst = build_network("sst", CANONICAL)
        kinds_ist = [l.kind for l in ist.layers]
        kinds_sst = [l.kind for l in sst.layers]
        assert kinds_ist.count("shuffle") == 0
        assert kinds_sst.count("shuffle") == 9
        assert kinds_sst.count("split") == 9
        assert len(sst.layers) == len(ist.layers) + 18

    def test_i3d_and_ist_differ_only_in_factorized_convs(self):
        i3d = build_network("i3d", CANONICAL)
        ist = build_network("ist", CANONICAL)
        # every factorized location turns 1 conv (+bn+relu) into 2
        n_factorized = 1 + 1 + 9 * 2  # conv1, conv3, two branches per module
        assert len(ist.layers) == len(i3d.layers) + 3 * n_factorized

    def test_gsst_module_convs_grouped(self):
        g = build_network("gsst", CANONICAL)
        for lid in ("conv2", "3b.b1", "4b.b2.spatial", "5c.b4.proj"):
            assert g.layer(lid).params.groups == 2
        assert g.layer("conv1.spatial").params.groups == 1
        assert g.layer("classifier").params.groups == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ModuleGraph(
                [
                    LayerSpec("input", "input", Shape5(1, 1, 1, 1, 1)),
                    LayerSpec("input", "relu", None, ["input"]),
                ],
                "i3d",
            )

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError, match="before definition"):
            ModuleGraph(
                [
                    LayerSpec("input", "input", Shape5(1, 1, 1, 1, 1)),
                    LayerSpec("a", "relu", None, ["b"]),
                ],
                "i3d",
            )

    def test_non_input_layer_without_inputs_rejected(self):
        with pytest.raises(ValueError, match="^layer 'a' has no predecessor$"):
            ModuleGraph(
                [
                    LayerSpec("input", "input", Shape5(1, 1, 1, 1, 1)),
                    LayerSpec("a", "relu", None, []),
                ],
                "i3d",
            )

    def test_softmax_before_last_layer_rejected(self):
        with pytest.raises(ValueError, match="'probs'.*not the last layer"):
            ModuleGraph(
                [
                    LayerSpec("input", "input", Shape5(1, 2, 1, 1, 1)),
                    LayerSpec("probs", "softmax", None, ["input"]),
                    LayerSpec("out", "relu", None, ["probs"]),
                ],
                "i3d",
            )

    def test_port_maps_reference_to_channel_slice(self):
        g = ModuleGraph(
            [
                LayerSpec("input", "input", Shape5(1, 6, 1, 1, 1)),
                LayerSpec("sp", "split", SplitSpec((1, 3, 2)), ["input"]),
                LayerSpec("cat", "concat", None, ["sp:2", "sp:0"]),
            ],
            "sst",
        )
        assert g.port("sp") == ("sp", slice(None))
        assert g.port("sp:0") == ("sp", slice(0, 1))
        assert g.port("sp:1") == ("sp", slice(1, 4))
        assert g.port("sp:2") == ("sp", slice(4, 6))
        assert g.shapes["cat"].c == 3
        for bad in ("sp:3", "sp:x", "input:0"):
            with pytest.raises(ValueError, match="names no port"):
                g.port(bad)

    def test_rejects_zero_channel_input(self):
        with pytest.raises(ValueError, match="^input must have at least one channel$"):
            build_network("i3d", Shape5(1, 0, 8, 32, 32))

    def test_inception_module_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="^unknown variant 'c3d'$"):
            build_inception_module(WIDTH_TABLE["4b"], "c3d", 480)

    def test_rejects_non_positive_classes_and_width(self):
        with pytest.raises(ValueError, match="at least one class"):
            build_network("i3d", CANONICAL, num_classes=0)
        for mult in (0.0, -1.0, float("inf")):
            with pytest.raises(ValueError, match="width multiplier"):
                build_network("i3d", CANONICAL, width_mult=mult)

    def test_width_multiplier_scales_classifier_input(self):
        g = build_network("gsst", Shape5(1, 3, 8, 32, 32), 2, width_mult=0.125)
        assert g.layer("classifier").params.in_channels == 128

    def test_shape_error_names_offending_layer(self):
        # a 1-frame clip survives the stem but dies at the temporal pools
        with pytest.raises(ValueError, match="maxp4"):
            build_network("i3d", Shape5(1, 3, 1, 224, 224))

    @pytest.mark.parametrize(
        "layer,rule",
        [
            (LayerSpec("bad", "bn", 3, ["input"]), "bn over 3 channels fed 4 channels"),
            (LayerSpec("bad", "shuffle", 3, ["input"]),
             "4 channels not divisible by shuffle groups 3"),
            (LayerSpec("bad", "split", SplitSpec((1, 2)), ["input"]),
             r"split sizes \(1, 2\) do not sum to 4"),
            (LayerSpec("bad", "split", SplitSpec((4, 0)), ["input"]),
             r"split sizes \(4, 0\) must each be at least 1"),
            (LayerSpec("bad", "concat", None, ["input", "pool"]),
             "concat inputs disagree on n/t/h/w"),
            (LayerSpec("bad", "dropout", None, ["input"]), "unknown layer kind 'dropout'"),
        ],
        ids=[
            "bn-channels", "shuffle-groups", "split-sizes", "split-zero-size", "concat-sites",
            "unknown-kind",
        ],
    )
    def test_shape_fault_raises_when_the_graph_is_built(self, layer, rule):
        layers = [
            LayerSpec("input", "input", Shape5(1, 4, 2, 4, 4)),
            LayerSpec("pool", "pool", PoolSpec("max", (1, 2, 2), (1, 2, 2)), ["input"]),
            layer,
        ]
        with pytest.raises(ShapeError, match=f"^shape inference failed at 'bad': {rule}$"):
            ModuleGraph(layers, "i3d")


class TestInceptionModule:
    def test_i3d_module_branches_concat(self):
        g = build_inception_module(WIDTH_TABLE["4b"], "i3d", 480, name="4b")
        shapes = g.shapes
        assert shapes["4b.concat"] == Shape5(1, 512, 8, 14, 14)

    def test_sst_split_matches_allocation(self):
        g = build_inception_module(WIDTH_TABLE["4b"], "sst", 480, name="4b")
        assert g.layer("4b.split").params.sizes == (180, 180, 60, 60)
        assert g.layer("4b.shuffle").params == 16

    def test_branch_two_factorization_widths(self):
        g = build_inception_module(WIDTH_TABLE["4b"], "ist", 480, name="4b")
        spatial = g.layer("4b.b2.spatial").params
        temporal = g.layer("4b.b2.temporal").params
        assert (spatial.in_channels, spatial.out_channels) == (96, 96)
        assert spatial.kernel == (1, 3, 3)
        assert (temporal.in_channels, temporal.out_channels) == (96, 208)
        assert temporal.kernel == (3, 1, 1)


class TestConfig:
    def test_parse_shape_arg(self):
        assert parse_shape_arg("3x32x224x224") == (3, 32, 224, 224)
        with pytest.raises(ValueError):
            parse_shape_arg("3x0x4x4")
        with pytest.raises(ValueError):
            parse_shape_arg("3xax4x4")

    def test_config_round_trip(self, tmp_path):
        path = tmp_path / "net.ini"
        path.write_text(
            "[network]\n"
            "arch = sst\n"
            "input = 3x32x224x224\n"
            "classes = 10\n"
            "width_mult = 0.5\n"
            "\n"
            "[widths.4b]\n"
            "b1 = 100\nb2_reduce = 50\nb2_out = 100\nb3_reduce = 10\n"
            "b3_out = 20\nb4_proj = 30\n"
        )
        cfg = parse_network_config(path)
        assert cfg.arch == "sst"
        assert cfg.input == (3, 32, 224, 224)
        assert cfg.classes == 10
        assert cfg.width_mult == 0.5
        assert cfg.width_overrides["4b"] == InceptionWidths(100, 50, 100, 10, 20, 30)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("arch = i3d\ninput = 3x8x32x32\n", "no section headers.*line: 1"),
            ("[network]\ninput = 3x8x32x32\n", r"\[network\] has no 'arch' field"),
            ("[network]\narch = i3d\n", r"\[network\] has no 'input' field"),
            ("[network]\narch = i3d\ninput = 3x8x32x32\nclasses = two\n", "classes"),
            ("[network]\narch = i3d\ninput = 3x0x32x32\n", "input: bad shape"),
            ("[network]\narch = i3d\narch = ist\n", "line 3.*already exists"),
            ("[network]\narch = i3d\ninput = 3x8x32x32\n[widths.4b]\nb1 = 1\n",
             r"\[widths.4b\] has no 'b2_reduce' field"),
            ("[network]\narch = foo\ninput = 3x8x32x32\n",
             r"\[network\] arch: unknown arch 'foo'; expected one of \('i3d', "),
            ("[network]\narch = i3d\ninput = 3x8x32x32\n[widths.4b]\nb1 = 0\nb2_reduce = 1\n"
             "b2_out = 1\nb3_reduce = 1\nb3_out = 1\nb4_proj = 1\n",
             r"\[widths.4b\] b1: must be at least 1, got 0"),
            ("[network]\narch = i3d\ninput = 3x8x32x32\nclasses = 0\n",
             r"\[network\] classes: must be at least 1, got 0"),
            ("[network]\narch = i3d\ninput = 3x8x32x32\nwidth_mult = nan\n",
             r"\[network\] width_mult: must be positive and finite, got nan"),
            ("[widths.4b]\nb1 = 1\n", r"missing \[network\] section$"),
        ],
        ids=["no-header", "no-arch", "no-input", "bad-classes", "bad-shape",
             "duplicate-key", "short-widths", "unknown-arch", "zero-width", "zero-classes",
             "nan-width-mult", "no-network"],
    )
    def test_config_errors_are_one_line_naming_the_file(self, tmp_path, text, message):
        path = tmp_path / "net.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as e:
            parse_network_config(path)
        assert str(path) in str(e.value)
        assert "\n" not in str(e.value)

    def test_config_rejects_unknown_module(self, tmp_path):
        path = tmp_path / "net.ini"
        path.write_text("[network]\narch = i3d\ninput = 3x8x32x32\n\n[widths.9z]\nb1 = 1\n")
        with pytest.raises(ValueError, match="9z"):
            parse_network_config(path)


def shape_digest(g: ModuleGraph) -> str:
    """Hash of every layer's (id, output shape) from ``g.shapes``."""
    h = hashlib.sha256()
    for lid, shape in g.shapes.items():
        h.update(repr((lid, tuple(shape))).encode())
    return h.hexdigest()[:16]


def graph_digest(g: ModuleGraph) -> str:
    """Hash of every layer's (id, kind, params, inputs, row, stage) plus the
    builder's notes: two graphs share a digest only if they agree layer for
    layer."""
    h = hashlib.sha256()
    for layer in g.layers:
        fields = (layer.id, layer.kind, layer.params, layer.inputs, layer.row, layer.stage)
        h.update(repr(fields).encode())
    h.update(repr(g.notes).encode())
    return h.hexdigest()[:16]


class TestGraphPins:
    """Whole-graph identity of the builder's output, pinned so that a change
    to the builder that moves any layer, parameter, row, stage or note shows
    up here.  Width 0.125 and 0.34 exercise the reduced shuffle-group and
    degrouped-convolution notes (0.34 degroups conv3.temporal in gsst)."""

    NETWORK_PINS = {
        ("i3d", (3, 32, 224, 224), 1.0): "fde99c3aa27da22e",
        ("ist", (3, 32, 224, 224), 1.0): "5803daed409232ce",
        ("sst", (3, 32, 224, 224), 1.0): "6ca91d9d417af6f0",
        ("gsst", (3, 32, 224, 224), 1.0): "47b229b76169021c",
        ("i3d", (3, 8, 32, 32), 0.125): "fba30a15288c84c9",
        ("ist", (3, 8, 32, 32), 0.125): "1a9e2899f3c6c008",
        ("sst", (3, 8, 32, 32), 0.125): "e3dcec515b5667ce",
        ("gsst", (3, 8, 32, 32), 0.125): "1c2d34c5b83e3dc4",
        ("i3d", (3, 8, 32, 32), 0.3): "d7e9684f37e20b70",
        ("ist", (3, 8, 32, 32), 0.3): "e31f9771f6311e26",
        ("i3d", (3, 8, 32, 32), 0.34): "8a4731d0607b8a99",
        ("ist", (3, 8, 32, 32), 0.34): "33561bbf2c5ebbcc",
        ("sst", (3, 8, 32, 32), 0.34): "040e24242a5a578b",
        ("gsst", (3, 8, 32, 32), 0.34): "84659ab9a0dbf773",
    }
    MODULE_4B_PINS = {
        "i3d": "0590343670c532bc",
        "ist": "74d4892a788fdfa6",
        "sst": "03871bd0b1b5f08d",
        "gsst": "e3aec2b8b91f5a8f",
    }
    OVERRIDE_PINS = {
        "i3d": "1a80ee67ecd818a4",
        "ist": "94e5b5311d4f95af",
        "sst": "9780eb9b034c791f",
        "gsst": "54b2ec9308813fbc",
    }

    @pytest.mark.parametrize("arch,shape,mult", list(NETWORK_PINS))
    def test_network(self, arch, shape, mult):
        classes = 60 if mult == 1.0 else 4
        g = build_network(arch, Shape5(1, *shape), classes, mult)
        assert graph_digest(g) == self.NETWORK_PINS[arch, shape, mult]

    @pytest.mark.parametrize("arch", ("sst", "gsst"))
    def test_width_without_shuffle_divisor_rejected(self, arch):
        # 192 * 0.3 rounds to 58 channels, which no count in [4, 16] divides
        message = r"no shuffle group count in \[4, 16\] divides 58"
        with pytest.raises(ValueError, match=message):
            build_network(arch, Shape5(1, 3, 8, 32, 32), 4, 0.3)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_module_4b(self, arch):
        g = build_inception_module(WIDTH_TABLE["4b"], arch, 480)
        assert graph_digest(g) == self.MODULE_4B_PINS[arch]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_width_override(self, arch):
        overrides = {"4b": InceptionWidths(100, 50, 100, 10, 20, 30)}
        g = build_network(arch, Shape5(1, 3, 8, 32, 32), 4, 0.5, overrides)
        assert graph_digest(g) == self.OVERRIDE_PINS[arch]

    # every layer's output shape in the same configurations; sst and gsst
    # differ only in conv groups, which leave shapes alone
    NETWORK_SHAPE_PINS = {
        ("i3d", (3, 32, 224, 224), 1.0): "cb9bcd9a25cb547d",
        ("ist", (3, 32, 224, 224), 1.0): "9450d1b673ba68e9",
        ("sst", (3, 32, 224, 224), 1.0): "68925443be9fd6bb",
        ("gsst", (3, 32, 224, 224), 1.0): "68925443be9fd6bb",
        ("i3d", (3, 8, 32, 32), 0.125): "6b3fd06eb1a04624",
        ("ist", (3, 8, 32, 32), 0.125): "a43046ff50544c1e",
        ("sst", (3, 8, 32, 32), 0.125): "cb7bb982971383cb",
        ("gsst", (3, 8, 32, 32), 0.125): "cb7bb982971383cb",
        ("i3d", (3, 8, 32, 32), 0.3): "85b64ae824774139",
        ("ist", (3, 8, 32, 32), 0.3): "727139bfb83adf24",
        ("i3d", (3, 8, 32, 32), 0.34): "d09bd2c20cb978d4",
        ("ist", (3, 8, 32, 32), 0.34): "a9d281c50abd8a24",
        ("sst", (3, 8, 32, 32), 0.34): "cba634bcc19e191d",
        ("gsst", (3, 8, 32, 32), 0.34): "cba634bcc19e191d",
    }
    MODULE_4B_SHAPE_PINS = {
        "i3d": "bbc6ad0182e73def",
        "ist": "beca271246dfe011",
        "sst": "7f024738f9b4e20d",
        "gsst": "7f024738f9b4e20d",
    }
    OVERRIDE_SHAPE_PINS = {
        "i3d": "a05cbc9c598a2e88",
        "ist": "27666ac65f6072c6",
        "sst": "061614e07f98a11c",
        "gsst": "061614e07f98a11c",
    }

    @pytest.mark.parametrize("arch,shape,mult", list(NETWORK_SHAPE_PINS))
    def test_network_shapes(self, arch, shape, mult):
        classes = 60 if mult == 1.0 else 4
        g = build_network(arch, Shape5(1, *shape), classes, mult)
        assert shape_digest(g) == self.NETWORK_SHAPE_PINS[arch, shape, mult]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_module_4b_shapes(self, arch):
        g = build_inception_module(WIDTH_TABLE["4b"], arch, 480)
        assert shape_digest(g) == self.MODULE_4B_SHAPE_PINS[arch]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_width_override_shapes(self, arch):
        overrides = {"4b": InceptionWidths(100, 50, 100, 10, 20, 30)}
        g = build_network(arch, Shape5(1, 3, 8, 32, 32), 4, 0.5, overrides)
        assert shape_digest(g) == self.OVERRIDE_SHAPE_PINS[arch]
