import csv
import hashlib
import io
import json

import numpy as np
import pytest

from lw3d import analysis, autodiff, ops
from lw3d.analysis import (
    analyze,
    compare_factorizations,
    emit_report,
    format_giga,
    format_millions,
    module_cost,
)
from lw3d.graph import WIDTH_TABLE, build_network
from lw3d.ops import MacCounter
from lw3d.tensor import Shape5, Tensor5D

CANONICAL = Shape5(1, 3, 32, 224, 224)


def rows_by_key(report):
    return {r.key: r for r in report.rows}


@pytest.fixture(scope="module")
def i3d():
    return analyze(build_network("i3d", CANONICAL))


class TestFullNetworkCounts:
    """Exact per-row parameter and FLOP counts for the dense baseline at the
    canonical 3x32x224x224 input (one MAC = one FLOP, no biases)."""

    def test_i3d_params_per_row(self, i3d):
        rows = rows_by_key(i3d)
        assert rows["conv1"].params == 65_856
        assert rows["conv2"].params == 4_096
        assert rows["conv3"].params == 331_776
        assert rows["mg3"].params == 1_222_144
        assert rows["mg4"].params == 5_894_400
        assert rows["mg5"].params == 4_754_432
        assert rows["classifier"].params == 61_440
        for key in ("maxp1", "maxp2", "maxp3", "maxp4", "avgp"):
            assert rows[key].params == 0

    def test_i3d_flops_per_row(self, i3d):
        rows = rows_by_key(i3d)
        assert rows["conv1"].flops == 13_217_562_624
        assert rows["maxp1"].flops == 28_901_376
        assert rows["conv2"].flops == 205_520_896
        assert rows["conv3"].flops == 16_647_192_576
        assert rows["maxp2"].flops == 21_676_032
        assert rows["mg3"].flops == 15_482_306_560
        assert rows["maxp3"].flops == 20_321_280
        assert rows["mg4"].flops == 9_350_121_984
        assert rows["maxp4"].flops == 1_304_576
        assert rows["mg5"].flops == 940_674_560

    def test_i3d_totals_exclude_classifier(self, i3d):
        assert i3d.total_params == 12_272_704
        assert i3d.total_params == sum(
            r.params for r in i3d.rows if r.key != "classifier"
        )

    def test_ist_exact_stem_cells(self):
        rows = rows_by_key(analyze(build_network("ist", CANONICAL)))
        assert rows["conv1"].params == 38_080
        assert rows["conv3"].params == 73_728
        assert rows["mg4"].params == 2_354_304

    def test_gsst_stem_cells_halved(self):
        rows = rows_by_key(analyze(build_network("gsst", CANONICAL)))
        assert rows["conv2"].params == 2_048
        assert rows["conv3"].params == 36_864
        assert rows["conv1"].params == 38_080  # first layer stays ungrouped

    def test_gsst_module_rows_exactly_half_of_sst(self):
        sst = rows_by_key(analyze(build_network("sst", CANONICAL)))
        gsst = rows_by_key(analyze(build_network("gsst", CANONICAL)))
        for key in ("mg3", "mg4", "mg5"):
            assert gsst[key].params * 2 == sst[key].params

    def test_monotone_compression(self):
        totals = [
            analyze(build_network(a, CANONICAL)).total_params
            for a in ("i3d", "ist", "sst", "gsst")
        ]
        assert totals == sorted(totals, reverse=True)
        per_group = {}
        for a in ("i3d", "ist", "sst", "gsst"):
            rows = rows_by_key(analyze(build_network(a, CANONICAL)))
            for key in ("mg3", "mg4", "mg5"):
                per_group.setdefault(key, []).append(rows[key].params)
        for vals in per_group.values():
            assert vals == sorted(vals, reverse=True)

    def test_bn_params_opt_in(self):
        g = build_network("i3d", CANONICAL)
        base = analyze(g).total_params
        with_bn = analyze(g, include_bn_params=True).total_params
        # every conv except the classifier carries a bn with 2 parameters
        bn_channels = sum(
            l.params for l in g.layers if l.kind == "bn"
        )
        assert with_bn == base + 2 * bn_channels

    def test_flops_scale_with_input(self):
        # another input is costed by building the network at that input
        half = analyze(build_network("i3d", Shape5(1, 3, 16, 224, 224)))
        full = analyze(build_network("i3d", CANONICAL))
        assert half.total_flops < full.total_flops


class TestModuleCost:
    def test_inc_4b_canonical(self):
        cost = module_cost("i3d", "4b")
        assert cost["params"] == 736_512
        assert cost["flops"] == 1_175_172_096

    def test_ist_4b(self):
        cost = module_cost("ist", "4b")
        assert cost["params"] == 324_096
        assert cost["stage_two_params"] == 178_176

    def test_sst_4b_stage_one(self):
        cost = module_cost("sst", "4b")
        assert cost["params"] == 204_096
        assert cost["stage_one_params"] == 52_800

    def test_gsst_4b_halves_sst_params(self):
        sst = module_cost("sst", "4b")
        gsst = module_cost("gsst", "4b")
        assert gsst["params"] * 2 == sst["params"]
        # flops do not halve exactly: the branch-4 pool costs the same in both
        assert gsst["flops"] == 162_551_424
        assert sst["flops"] == 322_562_688

    def test_stage_split_consistent(self):
        for variant in ("i3d", "ist", "sst", "gsst"):
            cost = module_cost(variant, "4b")
            assert (
                cost["stage_one_params"] + cost["stage_two_params"]
                == cost["params"]
            )

    def test_stage_two_flops_follow_sites(self):
        # every stage-two layer runs stride-1 same-padded at 8x14x14, so
        # its FLOPs are exactly params x 1568
        cost = module_cost("ist", "4b")
        assert cost["stage_two_flops"] == cost["stage_two_params"] * 8 * 14 * 14


class TestAnalyzerMatchesExecutor:
    def test_mac_counter_agrees_with_static_flops(self, monkeypatch):
        shape = Shape5(1, 3, 8, 32, 32)
        g = build_network("gsst", shape, num_classes=2, width_mult=0.125)
        params = autodiff.init_params(g, 0)
        counter = MacCounter()
        per_layer = {}  # each call's MACs, read from the counter, by its tag
        real = ops.conv3d_lowered

        def counted(x, spec, weights, _counter=None, tag=None):
            before = counter.macs
            y = real(x, spec, weights, counter, tag)
            per_layer[tag] = per_layer.get(tag, 0) + counter.macs - before
            return y

        monkeypatch.setattr(ops, "conv3d_lowered", counted)
        x = Tensor5D(np.zeros(tuple(shape), dtype=np.float32))
        autodiff.forward(g, params, x)
        static = analyze(g)
        # the counter tallies convs only (pools are not MACs); the static
        # report adds pool terms on top, so its total dominates
        by_hand = {
            l.id: g.shapes[l.id].size
            * (l.params.in_channels // l.params.groups)
            * int(np.prod(l.params.kernel))
            for l in g.layers
            if l.kind == "conv"
        }
        assert per_layer == by_hand
        assert per_layer == {
            c.layer.id: c.flops for c in analysis._layer_costs(g) if c.layer.kind == "conv"
        }
        assert static.total_flops + sum(
            r.flops for r in static.rows if r.key == "classifier"
        ) >= counter.macs


class TestFactorizationComparator:
    def test_canonical_96_to_208(self):
        candidates, best = compare_factorizations(96, 208, 3)
        by_label = {c.label: c for c in candidates}
        assert by_label["full3D"].params == 539_136
        assert by_label["temporal-first-widen-early"].layer_params == [59_904, 389_376]
        assert by_label["temporal-first-widen-late"].layer_params == [27_648, 179_712]
        assert by_label["spatial-first-widen-early"].layer_params == [179_712, 129_792]
        assert by_label["spatial-first-widen-late"].layer_params == [82_944, 59_904]
        assert best == "spatial-first-widen-late"

    def test_flops_are_params_times_sites(self):
        candidates, _ = compare_factorizations(4, 8, 3, sites=(2, 3, 3))
        for c in candidates:
            assert c.flops == c.params * 18

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            compare_factorizations(4, 8, 2)


class TestReportRendering:
    def test_formatting_helpers(self):
        assert format_millions(736_512) == "0.737"
        assert format_giga(13_217_562_624) == "13.218"

    def test_table_rows(self):
        report = analyze(build_network("i3d", CANONICAL))
        text = emit_report(report, "table")
        lines = text.splitlines()
        assert lines[0] == "Layer | Params(M) | FLOPs(G)"
        assert "Conv3 | 0.332 | 16.647" in lines
        assert "Total | 12.273 | 55.916" in lines

    def test_csv_keeps_raw_integers(self):
        report = analyze(build_network("i3d", CANONICAL))
        lines = emit_report(report, "csv").splitlines()
        assert lines[0] == "row,params_m,flops_g,params,flops"
        assert "conv3,0.332,16.647,331776,16647192576" in lines

    def test_json_round_trips(self):
        report = analyze(build_network("sst", CANONICAL))
        payload = json.loads(emit_report(report, "json"))
        assert payload["total"]["params"] == report.total_params
        assert any(n.startswith("4f:") for n in payload["notes"])

    def test_csv_carries_builder_notes(self):
        report = analyze(build_network("sst", CANONICAL))
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv"))))
        assert rows[-1 - len(report.notes)][0] == "total"
        notes = [row for row in rows if row[0] == "note"]
        assert [text for _, text in notes] == report.notes
        assert any(text.startswith("4f:") for _, text in notes)

    def test_unknown_format_rejected(self):
        report = analyze(build_network("i3d", CANONICAL))
        with pytest.raises(ValueError):
            emit_report(report, "yaml")


def text_digest(*parts) -> str:
    """Hash of the parts' text: ``str`` as is, anything else by ``repr``."""
    h = hashlib.sha256()
    for part in parts:
        h.update((part if isinstance(part, str) else repr(part)).encode())
    return h.hexdigest()[:16]


class TestCostPins:
    """Every cost output, pinned byte for byte: the rendered reports in all
    three formats, every module cost and the comparator.
    Width 0.34 carries the builder's notes; a change to the counting that
    moves any row, total, stage split or note shows up here."""

    NETWORKS = {(3, 32, 224, 224): 1.0, (3, 8, 32, 32): 0.34}
    REPORT_PINS = {
        ('i3d', (3, 32, 224, 224), False): 'a3835f111956b37a',
        ('i3d', (3, 32, 224, 224), True): '64e1a9330b575c7a',
        ('i3d', (3, 8, 32, 32), False): 'dc97ba0f2ede6f85',
        ('i3d', (3, 8, 32, 32), True): '66369bbb3855a291',
        ('ist', (3, 32, 224, 224), False): '6e31f4c59e3263fc',
        ('ist', (3, 32, 224, 224), True): 'c447be939b9b484b',
        ('ist', (3, 8, 32, 32), False): 'b6e4a7310bfe82d7',
        ('ist', (3, 8, 32, 32), True): '8364fb91317bbc17',
        ('sst', (3, 32, 224, 224), False): '27bae82bd7138211',
        ('sst', (3, 32, 224, 224), True): '12196a30995cbb85',
        ('sst', (3, 8, 32, 32), False): 'f44eefeb546df233',
        ('sst', (3, 8, 32, 32), True): '22f9a67617e2ce8b',
        ('gsst', (3, 32, 224, 224), False): '3253c32c42ea2625',
        ('gsst', (3, 32, 224, 224), True): '962fb15bede486da',
        ('gsst', (3, 8, 32, 32), False): 'd2138d8a57792d4f',
        ('gsst', (3, 8, 32, 32), True): '884260ca96791088',
    }
    MODULE_PINS = {
        'i3d': '72cb383f16ff36a2',
        'ist': '7793a7f1e9544de9',
        'sst': '0f17cda309e08328',
        'gsst': '606b45c3cf9ce798',
    }
    FACTORIZATION_PINS = {
        (96, 208, 3): 'dac14be62a733ce2',
        (4, 8, 3, (2, 3, 3)): '281e9c6e3b35beef',
        (16, 32, 5, (4, 7, 7)): '1aa6e4598105f04a',
        (480, 832, 7): 'c168e8efb5bed3f9',
        (7, 3, 1, (3, 5, 9)): 'fdfa72f27f2e8f4a',
    }

    def network(self, arch, shape):
        mult = self.NETWORKS[shape]
        return build_network(arch, Shape5(1, *shape), 60 if mult == 1.0 else 4, mult)

    @staticmethod
    def reports(g, bn):
        r = analyze(g, include_bn_params=bn)
        return text_digest(*(emit_report(r, fmt) for fmt in ("table", "csv", "json")))

    @staticmethod
    def modules(variant):
        return text_digest(
            *(module_cost(variant, m, cin) for m in WIDTH_TABLE for cin in (256, 480)),
            module_cost(variant, "4b", 480, (4, 7, 7)),
        )

    @pytest.mark.parametrize("arch,shape,bn", list(REPORT_PINS))
    def test_emit_report(self, arch, shape, bn):
        assert self.reports(self.network(arch, shape), bn) == self.REPORT_PINS[arch, shape, bn]

    @pytest.mark.parametrize("variant", list(MODULE_PINS))
    def test_module_cost(self, variant):
        assert self.modules(variant) == self.MODULE_PINS[variant]

    @pytest.mark.parametrize("case", list(FACTORIZATION_PINS))
    def test_compare_factorizations(self, case):
        assert text_digest(compare_factorizations(*case)) == self.FACTORIZATION_PINS[case]
