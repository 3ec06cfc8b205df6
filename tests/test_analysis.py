"""Overhead formulas, instrumentation agreement, and report emission."""

import csv
import json

import numpy as np
import pytest

from reference_search import dense_forward
from subquant.analysis import (
    OVERHEAD_COLUMNS,
    computation_overhead,
    memory_overhead,
    network_overhead_report,
    write_overhead_csv,
    write_overhead_json,
)
from subquant.calib import CalibConfig
from subquant.fixtures import build_small_cnn, random_inputs, resnet18_shape_graph
from subquant.model import lower_layer_input, prepare_for_quantization
from subquant.quant import (
    GranularityConfig,
    ScaleSet,
    init_scale,
    make_partition,
)


class TestComputationOverhead:
    def test_single_group_3x3(self):
        c = computation_overhead(kernel=3, in_channels=64, out_channels=64,
                                 pixels=100, h_groups=1)
        assert c["relative"] == pytest.approx(1 / 576)
        assert c["base"] == 64 * 100 * 576
        assert c["extra"] == 64 * 100

    def test_1x1_worst_case_25_percent(self):
        c = computation_overhead(kernel=1, in_channels=4, out_channels=8,
                                 pixels=10, h_groups=1)
        assert c["relative"] == 0.25

    def test_counter_matches_analytic_extra(self, term_sizes):
        rng = np.random.default_rng(0)
        graph = prepare_for_quantization(build_small_cnn())
        x = random_inputs(graph, 2, seed=1)
        gran = GranularityConfig("method1", 4, 36)
        outputs = {"input": x}
        for layer in graph.layers:
            if layer.kind not in ("conv", "linear"):
                continue
            cols = lower_layer_input(layer, x if layer.kind == "conv" else
                                        rng.normal(size=(2, layer.in_channels)).astype(np.float32))
            if layer.kind == "conv" and cols.shape[0] != layer.weights_per_channel:
                continue  # only check layers fed directly by the input shape
            part = make_partition(layer.out_channels, layer.weights_per_channel, gran)
            scales = ScaleSet(part, np.full((part.v_groups, part.h_groups), 0.1),
                              init_scale(cols, 8))
            dense_forward(layer.weight_matrix(), cols, scales)
            assert sum(term_sizes) == part.h_groups * layer.out_channels * cols.shape[1]
            break


class TestMemoryOverhead:
    def test_channelwise(self):
        p = make_partition(64, 576, GranularityConfig("channelwise"))
        m = memory_overhead(p)
        assert m["scales"] == 64
        assert m["relative"] == pytest.approx(1 / 576)

    def test_layerwise_single_scale(self):
        p = make_partition(64, 576, GranularityConfig("layerwise"))
        assert memory_overhead(p)["scales"] == 1

    def test_method1_rows_cols(self):
        p = make_partition(64, 576, GranularityConfig("method1", 1, 576))
        m = memory_overhead(p)
        assert m["scales"] == 64
        assert m["relative"] == pytest.approx(1 / 576)

    def test_monotone_in_group_area_for_divisible_shapes(self):
        rel = []
        for rows, cols in [(1, 16), (2, 16), (2, 32), (4, 32), (4, 64)]:
            p = make_partition(16, 128, GranularityConfig("method1", rows, cols))
            m = memory_overhead(p)
            assert m["relative"] == pytest.approx(1 / (rows * cols))
            rel.append(m["relative"])
        assert rel == sorted(rel, reverse=True)


class TestNetworkReport:
    def test_uniform_h1_equals_weighted_mean(self):
        graph = resnet18_shape_graph()
        rep = network_overhead_report(graph, GranularityConfig("method2", 1, h_groups=1))
        base = sum(r.base_macs for r in rep.layers)
        extra = sum(r.out_channels * r.pixels for r in rep.layers)
        assert rep.total_extra_macs == extra
        assert rep.total_compute_overhead == pytest.approx(extra / base)
        for r in rep.layers:
            assert r.h_groups == 1
            assert r.compute_overhead == pytest.approx(1 / (r.kernel ** 2 * r.in_channels))

    def test_resnet18_table_anchor(self):
        graph = resnet18_shape_graph()
        rep = network_overhead_report(graph, GranularityConfig("method1", 1, 576))
        assert 100 * rep.total_compute_overhead == pytest.approx(0.20, abs=0.10)
        # stem and classifier are excluded by their flags
        ids = [r.layer_id for r in rep.layers]
        assert "conv1" not in ids and "fc" not in ids

    def test_pixel_counts_from_input_shape(self):
        graph = resnet18_shape_graph()
        rep = network_overhead_report(graph, GranularityConfig("channelwise"))
        by_id = {r.layer_id: r for r in rep.layers}
        assert by_id["b1.conv1"].pixels == 56 * 56
        assert by_id["b8.conv2"].pixels == 7 * 7

    def test_rejects_network_without_quantized_layers(self):
        graph = resnet18_shape_graph()
        for layer in graph.conv_like():
            layer.quantize = False
        with pytest.raises(ValueError):
            network_overhead_report(graph, GranularityConfig("channelwise"))


class TestReportFiles:
    def test_csv_schema_and_total_row(self, tmp_path):
        graph = resnet18_shape_graph()
        rep = network_overhead_report(graph, GranularityConfig("method1", 2, 72))
        path = write_overhead_csv(rep, tmp_path / "overhead.csv")
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == OVERHEAD_COLUMNS
        assert rows[-1][0] == "TOTAL"
        assert int(rows[-1][7]) == rep.total_base_macs
        assert float(rows[-1][9]) == pytest.approx(rep.total_compute_overhead)
        assert len(rows) == len(rep.layers) + 2

    def test_json_totals(self, tmp_path):
        graph = resnet18_shape_graph()
        rep = network_overhead_report(graph, GranularityConfig("channelwise"))
        path = write_overhead_json(rep, tmp_path / "overhead.json")
        payload = json.loads(path.read_text())
        assert payload["total"]["scale_count"] == rep.total_scale_count
        assert len(payload["layers"]) == len(rep.layers)
