"""End-to-end CLI runs on the demo bundles."""

import csv
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BLOB_INTEGERS_THAT_ARE_NOT_INTS, write_config
from subquant import calib, cli, model, quant, tensor
from subquant.cli import main, parallel_map
from subquant.errors import BadInputError
from subquant.fixtures import build_resnet20_style, build_small_cnn, random_inputs
from subquant.model import (Layer, ModelGraph, load_bundle, load_calibration_set, save_bundle,
                            save_calibration_set)
from subquant.tensor import ACTIVATIONS


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def quick_calib(**overrides):
    cfg = {"grid_size": 12, "iterations": 1, "samples": 8}
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="module")
def resnet20_config(tmp_path_factory):
    """A reorder run on resnet20_style, whose 9 segments give each of two
    workers several searches, with search settings cut down for a test."""
    root = tmp_path_factory.mktemp("resnet20")
    graph = build_resnet20_style()
    save_bundle(graph, root / "resnet20_style")
    save_calibration_set(root / "calib.ptqc", random_inputs(graph, 4, seed=0))
    return write_config(
        root / "run.json",
        model=str(root / "resnet20_style"),
        calibration=str(root / "calib.ptqc"),
        granularity={"mode": "method1", "rows_per_group": 4, "cols_per_group": 36},
        calib=quick_calib(grid_size=4, samples=4),
        reorder={"population": 2, "iterations": 1})


class TestQuantize:
    def test_end_to_end(self, fixture_dir, tmp_path):
        config = write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "channelwise"},
            calib=quick_calib(),
            out=str(tmp_path / "out"))
        assert main(["quantize", "--config", str(config)]) == 0
        summary = json.loads((tmp_path / "out" / "quantize_summary.json").read_text())
        assert summary["network_distance"] >= 0
        assert summary["quantized_layers"] == ["conv2", "conv3", "conv4", "conv5"]
        rows = read_csv(tmp_path / "out" / "layer_distances.csv")
        assert rows[0] == ["layer", "kind", "quantized", "distance"]
        loaded = load_bundle(tmp_path / "out" / "quantized")
        assert set(loaded.scales) == {"conv2", "conv3", "conv4", "conv5"}

    def test_method2_scale_geometry(self, fixture_dir, tmp_path):
        config = write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "method2", "rows_per_group": 1, "h_groups": 4},
            calib=quick_calib(),
            out=str(tmp_path / "out"))
        assert main(["quantize", "--config", str(config)]) == 0
        loaded = load_bundle(tmp_path / "out" / "quantized")
        for lid, scales in loaded.scales.items():
            layer = loaded.layer(lid)
            assert scales.partition.cols_per_group == math.ceil(layer.weights_per_channel / 4)
            assert scales.weight_scales.shape[1] == 4

    def test_missing_calibration_exits_2(self, fixture_dir, tmp_path, capsys):
        config = write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(tmp_path / "nowhere.ptqc"),
            granularity={"mode": "channelwise"},
            calib=quick_calib(),
            out=str(tmp_path / "out"))
        assert main(["quantize", "--config", str(config)]) == 2
        assert "nowhere.ptqc" in capsys.readouterr().err

    def test_bad_granularity_exits_2(self, fixture_dir, tmp_path):
        config = write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "method1", "rows_per_group": 1},
            out=str(tmp_path / "out"))
        assert main(["quantize", "--config", str(config)]) == 2

    def test_all_excluded_copies_input(self, tmp_path):
        # a BN-free graph with nothing to quantize round-trips bit-identically
        graph = build_small_cnn()
        from subquant.model import prepare_for_quantization
        graph = prepare_for_quantization(graph)
        for layer in graph.layers:
            layer.quantize = False
        save_bundle(graph, tmp_path / "plain")
        save_calibration_set(tmp_path / "calib.ptqc",
                             np.zeros((4, 3, 8, 8), np.float32))
        config = write_config(
            tmp_path / "run.json",
            model=str(tmp_path / "plain"),
            calibration=str(tmp_path / "calib.ptqc"),
            granularity={"mode": "channelwise"},
            calib=quick_calib(samples=4),
            out=str(tmp_path / "out"))
        assert main(["quantize", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "quantized" / "tensors.bin").read_bytes() == \
            (tmp_path / "plain" / "tensors.bin").read_bytes()
        assert (tmp_path / "out" / "quantized" / "manifest.json").read_bytes() == \
            (tmp_path / "plain" / "manifest.json").read_bytes()
        rows = read_csv(tmp_path / "out" / "layer_distances.csv")
        assert all(float(r[3]) == 0.0 for r in rows[1:])

    def test_out_env_var(self, fixture_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBQUANT_OUT", str(tmp_path / "envout"))
        config = write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "layerwise"},
            calib=quick_calib())
        assert main(["quantize", "--config", str(config)]) == 0
        assert (tmp_path / "envout" / "quantize_summary.json").is_file()


class TestSweep:
    def base_config(self, fixture_dir, tmp_path, sweep, **extra):
        return write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "channelwise"},
            calib=quick_calib(),
            sweep=sweep,
            out=str(tmp_path / "out"),
            **extra)

    def test_single_cell_matches_quantize(self, fixture_dir, tmp_path):
        config = self.base_config(fixture_dir, tmp_path, {"rows": [1], "h_groups": [1]})
        assert main(["sweep", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "sweep_distance.csv")
        sweep_distance = float(rows[1][1])
        config_q = write_config(
            tmp_path / "q.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "method2", "rows_per_group": 1, "h_groups": 1},
            calib=quick_calib(),
            out=str(tmp_path / "qout"))
        assert main(["quantize", "--config", str(config_q)]) == 0
        summary = json.loads((tmp_path / "qout" / "quantize_summary.json").read_text())
        assert sweep_distance == pytest.approx(summary["network_distance"])

    @pytest.fixture
    def rows_2_fails(self, monkeypatch):
        """calibrate_network raises for rows_per_group 2 only."""
        real = cli.calibrate_network

        def calibrate(layers, feeds, granularity, cfg, measure=None):
            if granularity.rows_per_group == 2:
                raise ValueError("calibration failed")
            return real(layers, feeds, granularity, cfg, measure)

        monkeypatch.setattr(cli, "calibrate_network", calibrate)

    def test_grid_shape_and_failed_cell(self, fixture_dir, tmp_path, rows_2_fails):
        config = self.base_config(fixture_dir, tmp_path, {"rows": [2, 1], "cols": [36]})
        assert main(["sweep", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "sweep_distance.csv")
        assert rows[0] == ["rows\\cols", "36"]
        assert rows[1][1] == "FAILED"
        assert rows[2][1] != "FAILED"
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert "error" in summary["cells"][0]

    def test_jobs_flag_keeps_results_identical(self, fixture_dir, tmp_path):
        config = self.base_config(fixture_dir, tmp_path, {"rows": [1, 2], "h_groups": [1, 2]})
        assert main(["sweep", "--config", str(config), "--out",
                     str(tmp_path / "seq")]) == 0
        assert main(["sweep", "--config", str(config), "--jobs", "2", "--out",
                     str(tmp_path / "par")]) == 0
        assert (tmp_path / "seq" / "sweep_distance.csv").read_bytes() == \
            (tmp_path / "par" / "sweep_distance.csv").read_bytes()

    def test_failed_cell_in_a_worker(self, fixture_dir, tmp_path, rows_2_fails):
        config = self.base_config(fixture_dir, tmp_path, {"rows": [2, 1], "cols": [36]})
        for jobs in ("1", "2"):
            assert main(["sweep", "--config", str(config), "--jobs", jobs, "--out",
                         str(tmp_path / jobs)]) == 0
        rows = read_csv(tmp_path / "2" / "sweep_distance.csv")
        assert rows[1][1] == "FAILED" and rows[2][1] != "FAILED"
        for name in ("sweep_distance.csv", "sweep_summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_empty_sweep_exits_2(self, fixture_dir, tmp_path):
        config = self.base_config(fixture_dir, tmp_path, {"rows": []})
        assert main(["sweep", "--config", str(config)]) == 2

    @pytest.mark.parametrize("sweep,fault", [
        ({"rows": [], "cols": [36], "h_groups": [1]}, "needs non-empty rows"),
        ({"rows": [1], "cols": [36], "h_groups": [1]}, "either cols or h_groups, not both"),
        ({"rows": [1]}, "needs non-empty rows"), ({"cols": [36]}, "needs non-empty rows")],
        ids=["no-rows-both-axes", "both-axes", "no-axis", "no-rows"])
    def test_sweep_grid_fault_is_named(self, fixture_dir, tmp_path, capsys, sweep, fault):
        """Missing rows are named before two axes, and two axes before none."""
        config = self.base_config(fixture_dir, tmp_path, sweep)
        assert main(["sweep", "--config", str(config)]) == 2
        assert fault in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [{"rows": [2, 1, 1], "cols": [36, 72, 36]},
                                       {"rows": [1, 2, 1], "h_groups": [2, 1, 2]}],
                             ids=["cols", "h_groups"])
    def test_outputs_identical_for_any_jobs(self, fixture_dir, tmp_path, rows_2_fails, sweep):
        """Repeated rows and axis values and a failing cell (rows 2) give the
        same reports at 1, 2 and 3 workers."""
        config = self.base_config(fixture_dir, tmp_path, sweep)
        for jobs in ("1", "2", "3"):
            assert main(["sweep", "--config", str(config), "--jobs", jobs, "--out",
                         str(tmp_path / jobs)]) == 0
        rows = read_csv(tmp_path / "1" / "sweep_distance.csv")
        assert [row[0] for row in rows[1:]] == [str(r) for r in sweep["rows"]]
        assert rows[1 + sweep["rows"].index(2)][1:] == ["FAILED"] * 3
        assert rows[1 + sweep["rows"].index(1)][1] == rows[1 + sweep["rows"].index(1)][3]
        for name in ("sweep_distance.csv", "sweep_summary.json"):
            for jobs in ("2", "3"):
                assert (tmp_path / "1" / name).read_bytes() == \
                    (tmp_path / jobs / name).read_bytes()

    @pytest.mark.parametrize("given", ["inputs", "labels"])
    def test_half_set_eval_section_exits_2(self, fixture_dir, tmp_path, capsys, given):
        """An eval section that names only its samples, or only its labels,
        exits 2 as it does in eval, before any cell runs."""
        files = {"inputs": str(fixture_dir / "small_cnn_eval.ptqc"),
                 "labels": str(fixture_dir / "small_cnn_eval_labels.json")}
        config = self.base_config(fixture_dir, tmp_path, {"rows": [1], "h_groups": [1]},
                                  eval={given: files[given]})
        assert main(["sweep", "--config", str(config)]) == 2
        assert ("eval requires eval.inputs and eval.labels in the config"
                in capsys.readouterr().err)
        assert list((tmp_path / "out").iterdir()) == []

    def test_non_finite_quantized_output_fails_the_cells_accuracy(self, fixture_dir,
                                                                  tmp_path, monkeypatch):
        """A quantized forward of the eval samples whose conv5 output is inf
        records that fault, naming the layer, as the cell's error in place of
        its accuracy; the cell keeps its distance."""
        real = cli.quantized_conv

        def overflowing(scales):
            conv_op = real(scales)

            def op(layer, x):
                out = conv_op(layer, x)
                return np.full_like(out, np.inf) if layer.id == "conv5" else out
            return op

        monkeypatch.setattr(cli, "quantized_conv", overflowing)
        config = self.base_config(
            fixture_dir, tmp_path, {"rows": [1], "h_groups": [1]},
            eval={"inputs": str(fixture_dir / "small_cnn_eval.ptqc"),
                  "labels": str(fixture_dir / "small_cnn_eval_labels.json")})
        assert main(["sweep", "--config", str(config), "--jobs", "1"]) == 0
        out = tmp_path / "out"
        cells = json.loads((out / "sweep_summary.json").read_text())["cells"]
        assert [cell.keys() for cell in cells] == [{"rows", "h_groups", "distance", "error"}]
        assert cells[0]["error"] == ("BadInputError: the quantized forward of the samples is "
                                     "not finite at layer conv5: the samples are too large")
        assert read_csv(out / "sweep_distance.csv")[1][1] == repr(cells[0]["distance"])
        assert read_csv(out / "sweep_accuracy.csv")[1][1] == "FAILED"

    @pytest.fixture
    def calibrations(self, monkeypatch):
        """Stub calibrate_network: records each granularity it gets (rows,
        h_groups) and returns a distance that names the cell."""
        seen = []

        def calibrate(layers, feeds, granularity, cfg, measure=None):
            cell = (granularity.rows_per_group, granularity.h_groups)
            seen.append(cell)
            return types.SimpleNamespace(
                layer_distances={"output": float(10 * cell[0] + cell[1])})

        monkeypatch.setattr(cli, "calibrate_network", calibrate)
        return seen

    def test_cells_go_out_largest_first(self, fixture_dir, tmp_path, calibrations,
                                        monkeypatch):
        """The workers get each distinct cell once, by descending weight-scale
        group count, ties in grid order. On small_cnn's quantized layers
        (conv2 12x72, conv3 and conv4 12x108, conv5 16x108) rows 1 gives 52
        groups at h 1 and 208 at h 4, rows 4 gives 13 and 52."""
        dispatched = []

        def spy(fn, items, jobs):
            dispatched.append(list(items))
            return parallel_map(fn, items, jobs)

        monkeypatch.setattr(cli, "parallel_map", spy)
        config = self.base_config(fixture_dir, tmp_path,
                                  {"rows": [4, 1, 4], "h_groups": [1, 4, 1]})
        assert main(["sweep", "--config", str(config)]) == 0
        assert dispatched == [[(1, 4), (4, 4), (1, 1), (4, 1)]]
        assert calibrations == [(1, 4), (4, 4), (1, 1), (4, 1)]
        assert read_csv(tmp_path / "out" / "sweep_distance.csv") == [
            ["rows\\h_groups", "1", "4", "1"],
            ["4", "41.0", "44.0", "41.0"],
            ["1", "11.0", "14.0", "11.0"],
            ["4", "41.0", "44.0", "41.0"]]

    def test_repeated_cell_is_calibrated_once(self, fixture_dir, tmp_path, calibrations):
        config = self.base_config(fixture_dir, tmp_path, {"rows": [1, 1], "h_groups": [2, 2]})
        assert main(["sweep", "--config", str(config), "--jobs", "2"]) == 0
        assert calibrations == [(1, 2)]
        assert read_csv(tmp_path / "out" / "sweep_distance.csv") == [
            ["rows\\h_groups", "2", "2"], ["1", "12.0", "12.0"], ["1", "12.0", "12.0"]]
        cells = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())["cells"]
        assert cells == [{"rows": 1, "h_groups": 2, "distance": 12.0}] * 4


class TestReorder:
    def test_end_to_end_improvement_nonnegative(self, fixture_dir, tmp_path):
        common = dict(
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "method1", "rows_per_group": 4, "cols_per_group": 27},
            calib=quick_calib(),
            reorder={"population": 4, "iterations": 1})
        config = write_config(tmp_path / "r.json", out=str(tmp_path / "rout"), **common)
        assert main(["reorder", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "rout" / "segment_scores.csv")
        assert rows[0] == ["segment", "baseline_score", "best_score", "improvement"]
        assert len(rows) == 2
        assert float(rows[1][3]) >= 0
        summary = json.loads((tmp_path / "rout" / "reorder_summary.json").read_text())
        config_q = write_config(tmp_path / "q.json", out=str(tmp_path / "qout"), **common)
        assert main(["quantize", "--config", str(config_q)]) == 0
        q_summary = json.loads((tmp_path / "qout" / "quantize_summary.json").read_text())
        assert summary["baseline_network_distance"] == \
            pytest.approx(q_summary["network_distance"])
        loaded = load_bundle(tmp_path / "rout" / "reordered")
        assert loaded.reorderings[0]["segment"] == "block1"
        assert sorted(loaded.reorderings[0]["permutations"][0]) == list(range(12))

    def test_jobs_flag_keeps_results_identical(self, resnet20_config, tmp_path):
        for jobs in ("1", "2"):
            assert main(["reorder", "--config", str(resnet20_config), "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
        for name in ("segment_scores.csv", "reorder_summary.json",
                     "reordered/manifest.json", "reordered/tensors.bin"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_bad_input_in_a_worker_exits_2(self, resnet20_config, tmp_path, capsys,
                                           monkeypatch):
        segment_of = {s.layer_ids[0]: s.id for s in build_resnet20_style().segments}

        def rejecting_search(layers, fitness, cfg):
            raise BadInputError(f"segment {segment_of[layers[0].id]} rejected in process "
                                f"{os.getpid()}")
        monkeypatch.setattr("subquant.cli.ea_search", rejecting_search)
        assert main(["reorder", "--config", str(resnet20_config), "--jobs", "2",
                     "--out", str(tmp_path / "out")]) == 2
        found = re.search(r"error: segment block1 rejected in process (\d+)",
                          capsys.readouterr().err)
        assert found and int(found.group(1)) != os.getpid()

    def test_each_float_conv_runs_once_per_calibration(self, resnet20_config, tmp_path,
                                                       monkeypatch):
        """With the block searches stubbed out, reorder runs the float convs
        of the calibration samples only in the baseline and the final
        calibration: each layer twice, fc twice in each (it runs in float on
        the quantized prefix too), and no float forward besides."""
        monkeypatch.setattr("subquant.cli.score_block",
                            lambda block_input, granularity, calib_cfg, layers: 0.0)
        ran = []
        real = calib.float_conv

        def spy(layer, x):
            ran.append(layer.id)
            return real(layer, x)
        monkeypatch.setattr(calib, "float_conv", spy)
        assert main(["reorder", "--config", str(resnet20_config),
                     "--out", str(tmp_path / "out")]) == 0
        expect = {layer.id: 2 for layer in build_resnet20_style().conv_like()}
        assert Counter(ran) == {**expect, "fc": 4}

    def test_no_segments_is_noop(self, tmp_path, capsys):
        """A bundle without segments gets a summary with the keys of a
        segmented run's, and an improvement of 0."""
        graph = build_small_cnn()
        save_bundle(graph, tmp_path / "seg")
        graph.segments = []
        save_bundle(graph, tmp_path / "noseg")
        save_calibration_set(tmp_path / "calib.ptqc",
                             np.random.default_rng(0).normal(
                                 size=(4, 3, 8, 8)).astype(np.float32))

        def run(bundle):
            config = write_config(
                tmp_path / f"{bundle}.json",
                model=str(tmp_path / bundle),
                calibration=str(tmp_path / "calib.ptqc"),
                granularity={"mode": "channelwise"},
                calib=quick_calib(samples=4),
                reorder={"population": 2, "iterations": 1},
                out=str(tmp_path / f"{bundle}_out"))
            assert main(["reorder", "--config", str(config)]) == 0
            return json.loads((tmp_path / f"{bundle}_out" / "reorder_summary.json").read_text())

        summary = run("noseg")
        assert "nothing to reorder" in capsys.readouterr().out
        assert summary["segments"] == []
        assert summary["improvement"] == 0.0
        assert summary.keys() == run("seg").keys()


class TestOverhead:
    def test_report_files(self, fixture_dir, tmp_path):
        config = write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            granularity={"mode": "method1", "rows_per_group": 1, "cols_per_group": 36},
            out=str(tmp_path / "out"))
        assert main(["overhead", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "overhead.csv")
        assert rows[-1][0] == "TOTAL"
        payload = json.loads((tmp_path / "out" / "overhead.json").read_text())
        assert payload["total"]["base_macs"] > 0


def lossless_eval_bundle(tmp_path):
    """Exactly quantizable two-conv block plus an unquantized classifier."""
    dw, dx = 0.25, 0.0625
    w_a = (np.array([[7, -8], [0, -8]], np.float32) * dw).reshape(2, 2, 1, 1)
    w_b = (np.array([[-8, 0], [4, -8]], np.float32) * dw).reshape(2, 2, 1, 1)
    rng = np.random.default_rng(4)
    fc = rng.normal(size=(3, 8)).astype(np.float32)
    layers = [Layer(id="input", kind="input"),
              Layer(id="convA", kind="conv", predecessors=["input"], out_channels=2,
                    in_channels=2, kernel=1, quantize=True, weight=w_a),
              Layer(id="convB", kind="conv", predecessors=["convA"], out_channels=2,
                    in_channels=2, kernel=1, quantize=True, weight=w_b),
              Layer(id="fc", kind="linear", predecessors=["convB"], out_channels=3,
                    in_channels=8, quantize=False, weight=fc),
              Layer(id="output", kind="output", predecessors=["fc"])]
    graph = ModelGraph(layers, input_shape=[1, 2, 2, 2]).validate()
    save_bundle(graph, tmp_path / "lossless")
    q0 = np.array([[-128, 8], [-64, 56]], np.float32)
    q1 = np.array([[16, -64], [40, 0]], np.float32)
    base = np.stack([q0, q1]) * dx
    # further samples keep codes on multiples of 8 within [-64, 64], so every
    # layer output stays on the 8*dw*dx grid below the covering maximum
    extra = rng.integers(-8, 9, size=(3, 2, 2, 2)).astype(np.float32) * 8 * dx
    samples = np.concatenate([base[None], extra]).astype(np.float32)
    save_calibration_set(tmp_path / "calib.ptqc", samples)
    save_calibration_set(tmp_path / "eval.ptqc", samples)
    (tmp_path / "labels.json").write_text(json.dumps([0, 1, 2, 0]))
    return tmp_path


class TestEval:
    def test_lossless_network_identical_accuracy(self, tmp_path):
        lossless_eval_bundle(tmp_path)
        config = write_config(
            tmp_path / "run.json",
            model=str(tmp_path / "lossless"),
            calibration=str(tmp_path / "calib.ptqc"),
            granularity={"mode": "channelwise"},
            calib={"grid_size": 101, "iterations": 1, "samples": 4},
            eval={"inputs": str(tmp_path / "eval.ptqc"),
                  "labels": str(tmp_path / "labels.json")},
            out=str(tmp_path / "out"))
        assert main(["eval", "--config", str(config)]) == 0
        summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
        assert summary["float_top1"] == summary["quantized_top1"]
        assert summary["network_distance"] == 0.0

    def test_channelwise_beats_layerwise_distance(self, fixture_dir, tmp_path):
        results = {}
        for mode in ("channelwise", "layerwise"):
            config = write_config(
                tmp_path / f"{mode}.json",
                model=str(fixture_dir / "small_cnn"),
                calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
                granularity={"mode": mode},
                calib=quick_calib(),
                eval={"inputs": str(fixture_dir / "small_cnn_eval.ptqc"),
                      "labels": str(fixture_dir / "small_cnn_eval_labels.json")},
                out=str(tmp_path / mode))
            assert main(["eval", "--config", str(config)]) == 0
            results[mode] = json.loads(
                (tmp_path / mode / "eval_summary.json").read_text())
        assert results["channelwise"]["network_distance"] < \
            results["layerwise"]["network_distance"]

    def test_zero_sample_eval_exits_2(self, fixture_dir, tmp_path):
        save_calibration_set(tmp_path / "empty.ptqc", np.zeros((0, 3, 8, 8), np.float32))
        (tmp_path / "labels.json").write_text("[]")
        config = write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "channelwise"},
            calib=quick_calib(),
            eval={"inputs": str(tmp_path / "empty.ptqc"),
                  "labels": str(tmp_path / "labels.json")},
            out=str(tmp_path / "out"))
        assert main(["eval", "--config", str(config)]) == 2

    def test_label_count_mismatch_exits_2(self, fixture_dir, tmp_path):
        (tmp_path / "labels.json").write_text("[1, 2]")
        config = write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "channelwise"},
            calib=quick_calib(),
            eval={"inputs": str(fixture_dir / "small_cnn_eval.ptqc"),
                  "labels": str(tmp_path / "labels.json")},
            out=str(tmp_path / "out"))
        assert main(["eval", "--config", str(config)]) == 2


@pytest.fixture(scope="module")
def quantized_small_cnn(fixture_dir, tmp_path_factory):
    """A small_cnn bundle with a method2 scale table, quantized once."""
    root = tmp_path_factory.mktemp("quantized")
    config = write_config(
        root / "run.json",
        model=str(fixture_dir / "small_cnn"),
        calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
        granularity={"mode": "method2", "rows_per_group": 1, "h_groups": 4},
        calib=quick_calib(),
        out=str(root / "out"))
    assert main(["quantize", "--config", str(config)]) == 0
    return root / "out" / "quantized"


class TestMalformedScaleTable:
    def eval_with_manifest_edit(self, bundle, fixture_dir, tmp_path, edit):
        broken = tmp_path / "broken"
        shutil.copytree(bundle, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        edit(manifest["scales"]["conv3"])
        (broken / "manifest.json").write_text(json.dumps(manifest))
        config = write_config(
            tmp_path / "run.json",
            model=str(broken),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "channelwise"},
            calib=quick_calib(),
            eval={"inputs": str(fixture_dir / "small_cnn_eval.ptqc"),
                  "labels": str(fixture_dir / "small_cnn_eval_labels.json")},
            out=str(tmp_path / "out"))
        return main(["eval", "--config", str(config)])

    def test_unchanged_bundle_evaluates(self, quantized_small_cnn, fixture_dir, tmp_path):
        assert self.eval_with_manifest_edit(quantized_small_cnn, fixture_dir, tmp_path,
                                            lambda entry: None) == 0

    def test_scales_on_an_unquantized_layer_exit_2(self, quantized_small_cnn, fixture_dir,
                                                  tmp_path, capsys):
        """A scale set alone marks a layer quantized, so one on a layer whose
        quantize is false is bad input. eval ran that layer in float while its
        report marked it quantized."""
        bundle = tmp_path / "contradictory"
        shutil.copytree(quantized_small_cnn, bundle)
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest_layer(manifest, "conv3")["quantize"] = False
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        assert self.eval_with_manifest_edit(bundle, fixture_dir, tmp_path,
                                            lambda entry: None) == 2
        assert "scales given for 'conv3', whose quantize is false" in capsys.readouterr().err

    def test_zero_input_scale_exits_2(self, quantized_small_cnn, fixture_dir, tmp_path,
                                      capsys):
        def edit(entry):
            entry["input_scale"] = 0
        assert self.eval_with_manifest_edit(quantized_small_cnn, fixture_dir, tmp_path,
                                            edit) == 2
        err = capsys.readouterr().err
        assert "conv3" in err and "positive" in err

    def test_scale_grid_one_row_short_exits_2(self, quantized_small_cnn, fixture_dir,
                                              tmp_path, capsys):
        def edit(entry):
            entry["weight_scales"].pop()
        assert self.eval_with_manifest_edit(quantized_small_cnn, fixture_dir, tmp_path,
                                            edit) == 2
        err = capsys.readouterr().err
        assert "conv3" in err and "scale grid" in err

    @pytest.mark.parametrize("key,value", [("input_scale", "0.0603"), ("input_scale", True),
                                           ("weight_scales", "strings")])
    def test_scale_that_is_not_a_number_exits_2(self, quantized_small_cnn, fixture_dir,
                                                tmp_path, key, value, capsys):
        """A scale given as a string or a bool is rejected, not coerced."""
        def edit(entry):
            entry[key] = ([[str(v) for v in row] for row in entry[key]]
                          if value == "strings" else value)
        assert self.eval_with_manifest_edit(quantized_small_cnn, fixture_dir, tmp_path,
                                            edit) == 2
        err = capsys.readouterr().err
        assert "layer conv3" in err and f"{key} must be a number" in err

    @pytest.mark.parametrize("key", ["input_scale", "weight_scales"])
    def test_scale_beyond_float64_exits_2(self, quantized_small_cnn, fixture_dir, tmp_path,
                                          key, capsys):
        """An integer scale too large for a float64, 10**400, is bad input
        (it exited 1 with an OverflowError)."""
        def edit(entry):
            if key == "input_scale":
                entry[key] = 10 ** 400
            else:
                entry[key][0][0] = 10 ** 400
        assert self.eval_with_manifest_edit(quantized_small_cnn, fixture_dir, tmp_path,
                                            edit) == 2
        err = capsys.readouterr().err
        assert "layer conv3: malformed scale entry" in err and "too large" in err

    SCALE_FIELDS = ("weight_scales", "input_scale", "weight_bits", "act_bits",
                    "rows_per_group", "cols_per_group")

    @settings(max_examples=30, deadline=None, database=None)
    @given(field=st.sampled_from(SCALE_FIELDS + ("weight_scales[0][0]",)),
           value=st.one_of(st.just("delete"), st.integers(), st.floats(), st.text(max_size=8),
                           st.booleans(), st.none(),
                           st.lists(st.one_of(st.floats(), st.integers()), max_size=3),
                           st.lists(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4),
                                    max_size=12)))
    def test_fuzzed_scale_field_never_exits_1(self, quantized_small_cnn, fixture_dir, field,
                                              value):
        """Any value in any field of a scale entry, or in one cell of its
        grid, is either run or rejected as bad input, never an internal
        error."""
        def edit(entry):
            if field == "weight_scales[0][0]":
                entry["weight_scales"][0][0] = value
            elif value == "delete":
                del entry[field]
            else:
                entry[field] = value
        with tempfile.TemporaryDirectory() as tmp:
            assert self.eval_with_manifest_edit(quantized_small_cnn, fixture_dir, Path(tmp),
                                                edit) in (0, 2)

    @pytest.mark.parametrize("key,value", [("weight_bits", 1), ("act_bits", 17),
                                           ("rows_per_group", 0), ("weight_bits", 4.5),
                                           ("rows_per_group", "1")])
    def test_bad_geometry_or_bits_exits_2(self, quantized_small_cnn, fixture_dir,
                                          tmp_path, key, value, capsys):
        def edit(entry):
            entry[key] = value
        assert self.eval_with_manifest_edit(quantized_small_cnn, fixture_dir, tmp_path,
                                            edit) == 2
        assert "conv3" in capsys.readouterr().err

    @pytest.mark.parametrize("width,ok", [(2 ** 23, True), (2 ** 23 + 1, False)])
    def test_accumulation_bound_checked_at_load(self, tmp_path, width, ok):
        """At W16/A16 a group of 2^23 columns reaches 2^53 exactly; one more
        column would make the integer accumulation inexact."""
        manifest = {
            "layers": [
                {"id": "in", "kind": "input"},
                {"id": "fc", "kind": "linear", "predecessors": ["in"],
                 "out_channels": 1, "in_channels": width, "quantize": True},
                {"id": "out", "kind": "output", "predecessors": ["fc"]}],
            "scales": {"fc": {"weight_scales": [[1.0]], "input_scale": 1.0,
                              "weight_bits": 16, "act_bits": 16,
                              "rows_per_group": 1, "cols_per_group": width}}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        if ok:
            assert load_bundle(tmp_path).scales["fc"].partition.cols_per_group == width
        else:
            with pytest.raises(BadInputError, match="layer fc: .*exact float64 range"):
                load_bundle(tmp_path)


# A two-sample small_cnn PTQC file: a 24-byte header (magic, count, rank and
# the 3 dims), then 2 * 3 * 8 * 8 float32 values.
PTQC_HEADER, PTQC_SIZE = 24, 24 + 2 * 3 * 8 * 8 * 4


@pytest.fixture(scope="module")
def small_ptqc(tmp_path_factory):
    path = tmp_path_factory.mktemp("ptqc") / "small.ptqc"
    save_calibration_set(path, random_inputs(build_small_cnn(), 2, seed=4))
    data = path.read_bytes()
    assert len(data) == PTQC_SIZE
    return data


def manifest_layer(manifest, lid):
    return next(e for e in manifest["layers"] if e["id"] == lid)


def drop_input_layer(manifest):
    manifest["layers"].pop(0)
    manifest_layer(manifest, "conv1")["predecessors"] = []


def drop_output_layer(manifest):
    manifest["layers"].pop()


def add_predecessor(lid, pred):
    def edit(manifest):
        manifest_layer(manifest, lid)["predecessors"].append(pred)
    return edit


def add_output_layer(manifest):
    manifest["layers"].append({"id": "output2", "kind": "output", "predecessors": ["fc"]})


def drop_weight(lid):
    def edit(manifest):
        del manifest_layer(manifest, lid)["weight"]
    return edit


# manifest edit of small_cnn -> (its fault as the message gives it, the
# commands run on it); reorder runs where the edit is on a segment conv
MALFORMED_GRAPHS = {
    "no-input-layer": (drop_input_layer, "layer conv1: kind 'conv' needs 1 predecessor, got []",
                       ("quantize", "eval")),
    "no-output-layer": (drop_output_layer, "the model needs one output layer, has 0: []",
                        ("quantize", "eval")),
    "relu-without-predecessor": (
        lambda manifest: manifest_layer(manifest, "add1.relu").update(predecessors=[]),
        "layer add1.relu: kind 'relu' needs 1 predecessor, got []", ("quantize", "eval")),
    "segment-conv-with-two-predecessors": (
        add_predecessor("conv3", "conv1.relu"),
        "layer conv3: kind 'conv' needs 1 predecessor, got ['conv2.relu', 'conv1.relu']",
        ("quantize", "eval", "reorder")),
    "output-with-two-predecessors": (
        add_predecessor("output", "conv5.relu"),
        "layer output: kind 'output' needs 1 predecessor, got ['fc', 'conv5.relu']",
        ("quantize", "eval")),
    "two-output-layers": (add_output_layer,
                          "the model needs one output layer, has 2: ['output', 'output2']",
                          ("quantize", "eval")),
    "segment-conv-without-weights": (
        drop_weight("conv3"), "layer conv3: a conv layer needs a weight blob",
        ("quantize", "sweep", "eval", "reorder")),
    "linear-without-weights": (drop_weight("fc"), "layer fc: a linear layer needs a weight blob",
                               ("quantize", "sweep", "eval")),
}


class TestMalformedInput:
    """Malformed manifests and sample files exit 2 with a message naming the
    fault, never 1 with an internal error."""

    def edited_bundle(self, fixture_dir, tmp_path, edit):
        broken = tmp_path / "broken"
        shutil.copytree(fixture_dir / "small_cnn", broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        edit(manifest)
        (broken / "manifest.json").write_text(json.dumps(manifest))
        return broken

    def run(self, command, tmp_path, model, calibration, eval_inputs=None, labels=8,
            calib=None):
        """`labels` is a label count, or the labels file's text; `calib`
        overrides quick_calib's entries."""
        extra = {}
        if eval_inputs is not None:
            (tmp_path / "labels.json").write_text(
                json.dumps([0] * labels) if isinstance(labels, int) else labels)
            extra["eval"] = {"inputs": str(eval_inputs),
                             "labels": str(tmp_path / "labels.json")}
        config = write_config(
            tmp_path / "run.json", model=str(model), calibration=str(calibration),
            granularity={"mode": "channelwise"}, calib=quick_calib(**(calib or {})),
            reorder={"population": 2, "iterations": 1},
            sweep={"rows": [1], "h_groups": [1]}, out=str(tmp_path / "out"), **extra)
        return main([command, "--config", str(config)])

    @pytest.mark.parametrize("command", ["quantize", "overhead"])
    @pytest.mark.parametrize("padding", [3, 10 ** 5, 10 ** 9])
    def test_padding_of_a_whole_kernel_exits_2(self, fixture_dir, tmp_path, capsys, command,
                                               padding):
        """A conv whose padding is at least its kernel has windows that read
        only padding. At 10^5 quantize exited 1 out of memory, at 10^9 it
        exited 1 with an array too big for numpy, and overhead reported on
        either."""
        bundle = self.edited_bundle(
            fixture_dir, tmp_path, lambda m: manifest_layer(m, "conv2").update(padding=padding))
        assert self.run(command, tmp_path, bundle, fixture_dir / "small_cnn_calib.ptqc") == 2
        err = capsys.readouterr().err
        assert "layer conv2" in err and f"padding {padding}, kernel 3" in err

    def test_conv_without_out_channels_exits_2(self, fixture_dir, tmp_path, capsys):
        def edit(manifest):
            entry = next(e for e in manifest["layers"] if e["id"] == "conv3")
            del entry["out_channels"]
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        err = capsys.readouterr().err
        assert "conv3" in err and "out_channels" in err

    @pytest.mark.parametrize("lid,field,value", [
        ("conv2", "stride", 0), ("conv2", "stride", 1.5), ("conv2", "padding", -1),
        ("conv2", "kernel", "3"), ("conv2", "activation", "gelu"),
        ("conv2", "quantize", "no"), ("conv1.bn", "epsilon", -5.0),
        ("conv1.bn", "channels", 8.0), ("fc", "kind", "input")])
    def test_bad_layer_field_exits_2(self, fixture_dir, tmp_path, capsys, lid, field, value):
        def edit(manifest):
            next(e for e in manifest["layers"] if e["id"] == lid)[field] = value
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        err = capsys.readouterr().err
        assert f"layer {lid}" in err and field in err

    @pytest.mark.parametrize("lid,field", [("conv2", "slope"), ("conv1.bn", "epsilon"),
                                           ("conv2", "weight")])
    def test_number_beyond_float64_exits_2(self, fixture_dir, tmp_path, capsys, lid, field):
        """A number no float64 or integer conversion can take, an integer of
        10**400 or a blob offset of 1e400 (JSON gives inf), is bad input named
        by the layer; each exited 1 with an OverflowError."""
        def edit(manifest):
            entry = next(e for e in manifest["layers"] if e["id"] == lid)
            if field == "weight":
                entry[field]["offset"] = math.inf
            else:
                entry[field] = 10 ** 400
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        assert f"layer {lid}: malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", [1e300, math.inf])
    def test_epsilon_beyond_float32_exits_2(self, fixture_dir, tmp_path, capsys, epsilon):
        """var + epsilon is summed in float32, where 1e300 overflows to inf:
        bad input named by the layer and epsilon. 1e300 ran with an overflow
        warning and folded the batchnorm with a factor of 0."""
        def edit(manifest):
            next(e for e in manifest["layers"] if e["id"] == "conv1.bn")["epsilon"] = epsilon
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        err = capsys.readouterr().err
        assert "layer conv1.bn" in err and "epsilon" in err

    def test_unfoldable_batchnorm_exits_2(self, fixture_dir, tmp_path, capsys):
        """A valid activation on a conv in front of its batchnorm cannot be
        folded: bad input, named by the batchnorm and the conv."""
        def edit(manifest):
            next(e for e in manifest["layers"] if e["id"] == "conv2")["activation"] = "relu"
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        assert "batchnorm conv2.bn into conv2" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,fault", [
        (lambda m: m.pop("input_shape"), "input_shape"),
        (lambda m: m.update(input_shape=[1]), "input_shape"),
        (lambda m: m.update(input_shape=[1, 3, 0, 0]), "non-positive conv output"),
        (lambda m: [e.update(quantize=False) for e in m["layers"]
                    if e["kind"] in ("conv", "linear")],
         "no quantized conv or linear layers")],
        ids=["no-input-shape", "1-d-input-shape", "empty-input", "nothing-quantized"])
    def test_overhead_of_bad_bundle_exits_2(self, fixture_dir, tmp_path, capsys, edit, fault):
        """A bundle whose shapes cannot be propagated, or that quantizes no
        layer, has no overhead report; each exited 1 with a ValueError."""
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("overhead", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        assert fault in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["overhead", "quantize"])
    @pytest.mark.parametrize("edit", [lambda m: m.pop("input_shape"),
                                      lambda m: m.update(input_shape=[1])],
                             ids=["no-input-shape", "1-d-input-shape"])
    def test_input_shape_that_is_not_nchw_exits_2(self, fixture_dir, tmp_path, capsys,
                                                   command, edit):
        """Without input_shape, or with one that is not [N, C, H, W], the
        shapes of a conv net cannot be propagated: the message names
        input_shape. quantize ran without one, and with [1] named only
        "not enough values to unpack"."""
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run(command, tmp_path, bundle, fixture_dir / "small_cnn_calib.ptqc") == 2
        assert "input_shape" in capsys.readouterr().err

    def test_input_shape_too_big_for_numpy_exits_2_naming_it(self, fixture_dir, tmp_path,
                                                              capsys):
        """The shapes of [1, 3, 10**12, 10**12] propagate, as Python
        integers, but numpy cannot hold a batch of that sample: quantize
        names input_shape, where it gave numpy's "array is too big" alone.
        overhead counts in Python integers and reports on it."""
        bundle = self.edited_bundle(fixture_dir, tmp_path,
                                    lambda m: m.update(input_shape=[1, 3, 10 ** 12, 10 ** 12]))
        calibration = fixture_dir / "small_cnn_calib.ptqc"
        assert self.run("quantize", tmp_path, bundle, calibration) == 2
        assert ("error: input_shape [1, 3, 1000000000000, 1000000000000]: array is too big"
                in capsys.readouterr().err)
        assert self.run("overhead", tmp_path, bundle, calibration) == 0

    @pytest.mark.parametrize("command", ["quantize", "overhead"])
    @pytest.mark.parametrize("lid", ["conv3", "fc"])
    def test_repeated_layer_id_exits_2(self, fixture_dir, tmp_path, capsys, command, lid):
        """A second layer `lid` right after the first, neither with quantize,
        is a repeated id. With fc, the last weighted layer, both commands
        exited 1: the quantize default compared the two layers field by
        field, weight arrays included."""
        def edit(manifest):
            entry = manifest_layer(manifest, lid)
            del entry["quantize"]
            manifest["layers"].insert(manifest["layers"].index(entry) + 1, dict(entry))
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run(command, tmp_path, bundle, fixture_dir / "small_cnn_calib.ptqc") == 2
        assert "duplicate layer ids in graph" in capsys.readouterr().err

    @pytest.mark.parametrize("lid,what,count", [("conv2", "weight", 864), ("fc", "bias", 10),
                                                ("conv1.bn", "var", 8)])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_blob_count_off_by_one_exits_2(self, fixture_dir, tmp_path, capsys, lid, what,
                                           count, delta):
        """A blob's count is its layer's shape product: [OC, IC, K, K] for
        conv2's weight, [OC] for fc's bias, [channels] for conv1.bn's var."""
        def edit(manifest):
            manifest_layer(manifest, lid)[what]["count"] = count + delta
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("quantize", tmp_path, bundle, fixture_dir / "small_cnn_calib.ptqc") == 2
        assert (f"layer {lid}: {what} blob has {count + delta} elements, expected {count}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("lid,what,field,value", BLOB_INTEGERS_THAT_ARE_NOT_INTS)
    def test_blob_integer_that_is_not_an_int_exits_2(self, fixture_dir, tmp_path, capsys, lid,
                                                     what, field, value):
        """A count of 8.9 or "8", or an offset of 0.0, is no integer; int()
        took each, and quantize ran on."""
        def edit(manifest):
            manifest_layer(manifest, lid)[what][field] = value
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("quantize", tmp_path, bundle, fixture_dir / "small_cnn_calib.ptqc") == 2
        assert f"layer {lid}: malformed {what} blob reference" in capsys.readouterr().err

    def test_blob_past_the_end_of_the_tensor_file_exits_2(self, fixture_dir, tmp_path,
                                                           capsys):
        """fc's bias, the last blob, moved on by one float: its count is
        right, but it ends 4 bytes past the end of tensors.bin."""
        size = (fixture_dir / "small_cnn" / "tensors.bin").stat().st_size
        def edit(manifest):
            manifest_layer(manifest, "fc")["bias"]["offset"] = size - 36
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("quantize", tmp_path, bundle, fixture_dir / "small_cnn_calib.ptqc") == 2
        assert (f"layer fc: bias blob [{size - 36}, {size + 4}) outside tensor file of {size} "
                f"bytes" in capsys.readouterr().err)

    FUZZ_FIELDS = ("id", "kind", "predecessors", "out_channels", "in_channels", "kernel",
                   "stride", "padding", "activation", "slope", "quantize", "weight", "bias",
                   "channels", "epsilon", "gamma", "beta", "mean", "var")

    @settings(max_examples=40, deadline=None, database=None)
    @given(lid=st.sampled_from(("conv1", "conv2", "conv5", "fc", "conv2.bn")),
           field=st.sampled_from(FUZZ_FIELDS),
           value=st.one_of(st.integers(), st.floats(), st.text(max_size=8), st.booleans(),
                           st.none(), st.sampled_from(ACTIVATIONS)))
    @example(lid="conv2.bn", field="epsilon", value=1e300)
    def test_fuzzed_layer_field_never_exits_1(self, fixture_dir, lid, field, value):
        """Any value in any field of a conv, linear or batchnorm layer is either
        run or rejected as bad input, never an internal error."""
        def edit(manifest):
            next(e for e in manifest["layers"] if e["id"] == lid)[field] = value
        with tempfile.TemporaryDirectory() as tmp:
            bundle = self.edited_bundle(fixture_dir, Path(tmp), edit)
            assert self.run("quantize", Path(tmp), bundle,
                            fixture_dir / "small_cnn_calib.ptqc") in (0, 2)

    def test_truncated_ptqc_header_exits_2(self, fixture_dir, tmp_path, capsys):
        (tmp_path / "short.ptqc").write_bytes(b"PTQC" + struct.pack("<I", 4))
        assert self.run("quantize", tmp_path, fixture_dir / "small_cnn",
                        tmp_path / "short.ptqc") == 2
        assert "truncated header" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["quantize", "sweep"])
    def test_empty_calibration_set_exits_2(self, fixture_dir, tmp_path, command, capsys):
        save_calibration_set(tmp_path / "empty.ptqc", np.zeros((0, 3, 8, 8), np.float32))
        assert self.run(command, tmp_path, fixture_dir / "small_cnn",
                        tmp_path / "empty.ptqc") == 2
        assert "empty.ptqc holds no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["quantize", "sweep"])
    def test_trailing_ptqc_byte_exits_2(self, fixture_dir, tmp_path, command, capsys):
        data = (fixture_dir / "small_cnn_calib.ptqc").read_bytes()
        (tmp_path / "long.ptqc").write_bytes(data + b"\0")
        assert self.run(command, tmp_path, fixture_dir / "small_cnn",
                        tmp_path / "long.ptqc") == 2
        err = capsys.readouterr().err
        payload = len(data) + 1 - PTQC_HEADER
        assert "long.ptqc" in err and f"payload holds {payload} bytes" in err

    @pytest.mark.parametrize("command", ["quantize", "reorder", "eval"])
    def test_quantized_forward_overflow_exits_2(self, fixture_dir, small_ptqc, tmp_path,
                                                command, capsys):
        """With one value of 1.4646e38, the float forward of the samples
        stays finite, but add1's sum in the calibrating walk overflows
        float32: bad input named by add1. Each command exited 1 ("overflow
        encountered in add")."""
        data = bytearray(small_ptqc)
        at = PTQC_HEADER + 4 * 126
        data[at:at + 4] = np.float32(1.4646064881061696e38).tobytes()
        (tmp_path / "big.ptqc").write_bytes(bytes(data))
        assert self.run(command, tmp_path, fixture_dir / "small_cnn", tmp_path / "big.ptqc",
                        eval_inputs=tmp_path / "big.ptqc", labels=2) == 2
        assert ("quantized forward of the samples is not finite at layer add1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["quantize", "sweep", "reorder", "eval", "sweep-eval"])
    def test_float_forward_overflow_exits_2(self, fixture_dir, quantized_small_cnn, tmp_path,
                                            command, capsys, monkeypatch):
        """Finite samples of 3e38 overflow conv1's float32 output to inf;
        every command finds it before it calibrates any layer, eval of a
        quantized bundle on such eval samples before it writes a report, and
        sweep on such eval samples (sweep-eval, with finite calibration
        samples) before it calibrates any cell."""
        huge = tmp_path / "huge.ptqc"
        save_calibration_set(huge, np.full((4, 3, 8, 8), 3e38, np.float32))

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the float forward check")
        monkeypatch.setattr(calib, "calibrate_layer", no_calibration)
        if command == "eval":
            code = self.run(command, tmp_path, quantized_small_cnn, huge, eval_inputs=huge,
                            labels=4)
        elif command == "sweep-eval":
            save_calibration_set(huge, np.full((16, 3, 8, 8), 3e38, np.float32))
            code = self.run("sweep", tmp_path, fixture_dir / "small_cnn",
                            fixture_dir / "small_cnn_calib.ptqc", eval_inputs=huge, labels=16)
        else:
            code = self.run(command, tmp_path, fixture_dir / "small_cnn", huge)
        assert code == 2
        err = capsys.readouterr().err
        assert "float forward of the samples is not finite at layer conv1" in err
        assert "internal error" not in err
        assert list((tmp_path / "out").iterdir()) == []

    @settings(max_examples=30, deadline=None, database=None)
    @given(edit=st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, PTQC_SIZE - 1), st.just(b"")),
        st.tuples(st.just("extend"), st.just(PTQC_SIZE), st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("overwrite"),
                  st.one_of(st.integers(0, PTQC_HEADER - 1), st.integers(0, PTQC_SIZE - 1)),
                  st.binary(min_size=1, max_size=4))))
    @example(edit=("overwrite", PTQC_HEADER, np.float32(3e38).tobytes()))
    def test_fuzzed_ptqc_bytes_never_exit_1(self, fixture_dir, small_ptqc, edit):
        """A PTQC file truncated, extended, or with bytes overwritten (the
        header's as often as the rest) is either run or rejected as bad
        input, never an internal error."""
        kind, at, patch = edit
        data = bytearray(small_ptqc)
        if kind == "truncate":
            del data[at:]
        else:
            data[at:at + len(patch)] = patch
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "fuzzed.ptqc").write_bytes(bytes(data))
            assert self.run("quantize", Path(tmp), fixture_dir / "small_cnn",
                            Path(tmp) / "fuzzed.ptqc") in (0, 2)

    @pytest.mark.parametrize("command", ["quantize", "sweep", "reorder", "eval"])
    def test_calibration_shape_mismatch_exits_2(self, fixture_dir, tmp_path, command,
                                                capsys):
        save_calibration_set(tmp_path / "small.ptqc", np.zeros((4, 3, 7, 7), np.float32))
        assert self.run(command, tmp_path, fixture_dir / "small_cnn",
                        tmp_path / "small.ptqc",
                        eval_inputs=fixture_dir / "small_cnn_eval.ptqc") == 2
        err = capsys.readouterr().err
        assert "small.ptqc" in err and "[3, 7, 7]" in err and "[3, 8, 8]" in err

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_non_finite_last_sample_exits_2_before_any_work(self, fixture_dir, tmp_path,
                                                            command, capsys, monkeypatch):
        """eval and sweep read the eval set one chunk at a time, but a NaN in
        its last sample still exits 2 naming the file before any calibration
        (or float walk) and before any report is written."""
        samples = random_inputs(build_small_cnn(), 70, 5)
        samples[-1, 2, 7, 7] = np.nan
        save_calibration_set(tmp_path / "nan.ptqc", samples)

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the eval set check")
        monkeypatch.setattr(cli, "calibrate_network", no_calibration)
        monkeypatch.setattr(cli, "checked_walk", no_calibration)
        monkeypatch.setattr(cli, "Lockstep", no_calibration)
        assert self.run(command, tmp_path, fixture_dir / "small_cnn",
                        fixture_dir / "small_cnn_calib.ptqc",
                        eval_inputs=tmp_path / "nan.ptqc", labels=70) == 2
        assert "nan.ptqc contains non-finite values" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_eval_set_truncated_after_it_was_opened(self, fixture_dir, tmp_path, command,
                                                    capsys, monkeypatch):
        """An eval set of 70 samples that passes every check, then is cut to
        40 samples as calibration starts, cannot be read past its first
        chunk: eval exits 2 naming the file, and sweep reports that fault
        for its cell instead of an accuracy, keeping its distance. Neither
        exits 1."""
        path = tmp_path / "eval.ptqc"
        save_calibration_set(path, random_inputs(build_small_cnn(), 70, 5))
        calibrate_network = cli.calibrate_network

        def truncating(*args, **kwargs):
            os.truncate(path, PTQC_HEADER + 40 * 768)  # 768 bytes a small_cnn sample
            return calibrate_network(*args, **kwargs)
        monkeypatch.setattr(cli, "calibrate_network", truncating)
        code = self.run(command, tmp_path, fixture_dir / "small_cnn",
                        fixture_dir / "small_cnn_calib.ptqc", eval_inputs=path, labels=70)
        fault = f"{path}: the file ends at byte {PTQC_HEADER + 40 * 768}, inside samples [32, 64)"
        if command == "eval":
            assert code == 2 and fault in capsys.readouterr().err
        else:
            assert code == 0
            cells = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())["cells"]
            assert [cell.keys() for cell in cells] == [{"rows", "h_groups", "distance", "error"}]
            assert cells[0]["error"].startswith(f"BadInputError: {fault}")
            out = tmp_path / "out"
            assert read_csv(out / "sweep_distance.csv")[1][1] == repr(cells[0]["distance"])
            assert read_csv(out / "sweep_accuracy.csv")[1][1] == "FAILED"

    def test_eval_set_shape_mismatch_exits_2(self, fixture_dir, tmp_path, capsys):
        save_calibration_set(tmp_path / "small.ptqc", np.zeros((4, 3, 7, 7), np.float32))
        assert self.run("eval", tmp_path, fixture_dir / "small_cnn",
                        fixture_dir / "small_cnn_calib.ptqc",
                        eval_inputs=tmp_path / "small.ptqc", labels=4) == 2
        err = capsys.readouterr().err
        assert "small.ptqc" in err and "[3, 7, 7]" in err

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_output_without_class_scores_exits_2(self, fixture_dir, tmp_path, command,
                                                 capsys, monkeypatch):
        """toy_segment's output is a [N, 4, 6, 6] feature map, not [N, classes]
        scores, so no label can be scored against it: eval and sweep name the
        output layer and its shape before any calibration."""
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the eval set check")
        monkeypatch.setattr("subquant.cli.calibrate_network", no_calibration)
        calib = fixture_dir / "toy_segment_calib.ptqc"
        assert self.run(command, tmp_path, fixture_dir / "toy_segment", calib,
                        eval_inputs=calib) == 2
        assert ("output layer output gives [N, 4, 6, 6] scores; eval needs [N, classes]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("labels,index,value", [
        ([0, 1, 2, 12, 0, -3, 0, 0], 3, 12), ([0, -3, 9, 12, 0, 0, 0, 0], 1, -3)])
    def test_label_outside_the_classes_exits_2(self, fixture_dir, tmp_path, command, capsys,
                                               monkeypatch, labels, index, value):
        """small_cnn scores 10 classes, so a label outside [0, 10) names none
        of them: the first such label is named by index and value."""
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the labels check")
        monkeypatch.setattr("subquant.cli.calibrate_network", no_calibration)
        assert self.run(command, tmp_path, fixture_dir / "small_cnn",
                        fixture_dir / "small_cnn_calib.ptqc",
                        eval_inputs=fixture_dir / "small_cnn_eval.ptqc",
                        labels=json.dumps(labels)) == 2
        assert (f"label {index} in {tmp_path / 'labels.json'} is {value}, outside [0, 10) "
                f"for the 10 classes of output layer output" in capsys.readouterr().err)

    def test_segment_that_is_not_a_conv_chain_exits_2(self, fixture_dir, tmp_path, capsys,
                                                      monkeypatch):
        def edit(manifest):
            manifest["segments"] = [{"id": "skip", "layers": ["conv3", "conv5"]}]

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the segment check")
        monkeypatch.setattr("subquant.cli.calibrate_network", no_calibration)
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("reorder", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        assert "segment skip is not a conv chain" in capsys.readouterr().err

    def test_overlapping_segments_exit_2(self, fixture_dir, tmp_path, capsys, monkeypatch):
        def edit(manifest):
            manifest["segments"] = [{"id": "block1", "layers": ["conv3", "conv4"]},
                                    {"id": "tail", "layers": ["conv4"]}]

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the segment check")
        monkeypatch.setattr("subquant.cli.calibrate_network", no_calibration)
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("reorder", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        assert "segments block1 and tail overlap at layer conv4" in capsys.readouterr().err

    @pytest.mark.parametrize("entries,fault", [
        pytest.param({"calib": quick_calib(weight_bits=40)},
                     "calib.weight_bits 40 outside [2, 16]", id="weight_bits-40"),
        pytest.param({"calib": quick_calib(act_bits=1)},
                     "calib.act_bits 1 outside [2, 16]", id="act_bits-1"),
        pytest.param({"sweep": {"rows": "14", "h_groups": [1]}},
                     "sweep.rows must be a list of integers, got '14'", id="rows-string"),
        pytest.param({"sweep": {"rows": [True], "h_groups": [1]}},
                     "each entry of sweep.rows must be an integer, got True", id="rows-bool"),
        pytest.param({"sweep": {"rows": [1], "cols": [2.5]}},
                     "each entry of sweep.cols must be an integer, got 2.5", id="cols-float"),
        pytest.param({"sweep": {"rows": [0, 1], "cols": [36]}},
                     "each entry of sweep.rows must be >= 1, got 0", id="rows-0"),
        pytest.param({"sweep": {"rows": [1], "h_groups": [0]}},
                     "each entry of sweep.h_groups must be >= 1, got 0", id="h-0"),
        pytest.param({"sweep": [1]}, "sweep must be a JSON object", id="sweep-list"),
        pytest.param({"granularity": [1]}, "granularity must be a JSON object",
                     id="granularity-list"),
        pytest.param({"granularity": {"mode": "method1", "cols_per_group": 2.5}},
                     "granularity.cols_per_group must be an integer, got 2.5",
                     id="cols_per_group-float"),
        pytest.param({"seed": 1.9}, "seed must be an integer, got 1.9", id="seed-float"),
        pytest.param({"calib": quick_calib(grid_size=2.5)},
                     "calib.grid_size must be an integer, got 2.5", id="grid_size-float"),
        pytest.param({"calib": quick_calib(grid_size=True)},
                     "calib.grid_size must be an integer, got True", id="grid_size-bool"),
        pytest.param({"calib": quick_calib(iterations=1.5)},
                     "calib.iterations must be an integer, got 1.5", id="iterations-float"),
        pytest.param({"calib": quick_calib(samples=8.5)},
                     "calib.samples must be an integer, got 8.5", id="samples-float"),
        pytest.param({"reorder": {"population": 2.5}},
                     "reorder.population must be an integer, got 2.5", id="population-float"),
        pytest.param({"reorder": {"max_pairs": "3"}},
                     "reorder.max_pairs must be an integer, got '3'", id="max_pairs-string"),
        pytest.param({"jobs": 0}, "jobs must be >= 1, got 0", id="jobs-0"),
        pytest.param({"jobs": "2"}, "jobs must be an integer, got '2'", id="jobs-string"),
        pytest.param({"seed": -1}, "seed must be >= 0, got -1", id="seed-negative"),
        pytest.param({"calib": quick_calib(seed=-1)}, "calib.seed must be >= 0, got -1",
                     id="calib-seed-negative"),
        pytest.param({"reorder": {"seed": -2}}, "reorder.seed must be >= 0, got -2",
                     id="reorder-seed-negative"),
        pytest.param({"reorder": {"seed": 1.5}}, "reorder.seed must be an integer, got 1.5",
                     id="reorder-seed-float"),
        pytest.param({"calib": quick_calib(alpha="x")}, "calib.alpha must be a number, got 'x'",
                     id="alpha-string"),
        pytest.param({"calib": quick_calib(beta=True)}, "calib.beta must be a number, got True",
                     id="beta-bool"),
        pytest.param({"calib": quick_calib(beta=math.inf)}, "beta must be finite, got inf",
                     id="beta-inf"),
        pytest.param({"calib": quick_calib(alpha=-math.inf)}, "alpha must be finite, got -inf",
                     id="alpha-minus-inf"),
        pytest.param({"calib": quick_calib(beta=math.nan)}, "beta must be finite, got nan",
                     id="beta-nan"),
        pytest.param({"calib": quick_calib(beta=10 ** 400)},
                     f"beta must be finite, got {10 ** 400}", id="beta-beyond-float64"),
        pytest.param({"reorder": {"selection": None}},
                     "reorder.selection must be a number, got None", id="selection-null"),
        pytest.param({"reorder": {"population": 2, "selection": 0.75}},
                     "selection 0.75 keeps all 2 individuals as parents, so no offspring",
                     id="selection-without-offspring"),
    ])
    def test_malformed_run_config_exits_2(self, fixture_dir, tmp_path, entries, fault,
                                          capsys):
        config = write_config(tmp_path / "run.json", **{
            "model": str(fixture_dir / "small_cnn"),
            "calibration": str(fixture_dir / "small_cnn_calib.ptqc"),
            "calib": quick_calib(), "sweep": {"rows": [1], "h_groups": [1]},
            "out": str(tmp_path / "out"), **entries})
        assert main(["sweep", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "run.json" in err and fault in err

    def test_subnormal_alpha_runs(self, fixture_dir, tmp_path):
        """alpha * center underflows to 0 for the smallest alpha; that
        candidate is dropped, not run as a zero scale."""
        assert self.run("quantize", tmp_path, fixture_dir / "small_cnn",
                        fixture_dir / "small_cnn_calib.ptqc", calib={"alpha": 5e-324}) == 0

    def test_beta_whose_scale_grid_overflows_exits_2(self, fixture_dir, tmp_path, capsys):
        """On samples 1000 times larger, beta times the input's center scale
        overflows float64, so the grid would hold inf and NaN candidates: bad
        input, naming beta. It exited 1 when the ScaleSet rejected them."""
        samples = load_calibration_set(fixture_dir / "small_cnn_calib.ptqc")
        save_calibration_set(tmp_path / "large.ptqc", 1000 * samples)
        assert self.run("quantize", tmp_path, fixture_dir / "small_cnn",
                        tmp_path / "large.ptqc", calib={"beta": 1e308}) == 2
        err = capsys.readouterr().err
        assert "calib.beta 1e+308 times the center scale" in err and "overflows" in err

    # Every run-config field a quantize run reads, one unknown field per
    # section, and the sections themselves.
    CONFIG_FIELDS = tuple(
        [f"calib.{key}" for key in ("alpha", "beta", "grid_size", "iterations", "metric",
                                    "samples", "seed", "weight_bits", "act_bits", "unknown")]
        + [f"reorder.{key}" for key in ("population", "iterations", "max_pairs", "selection",
                                        "seed", "unknown")]
        + [f"granularity.{key}" for key in ("mode", "rows_per_group", "cols_per_group",
                                            "h_groups", "unknown")]
        + ["sweep.rows", "sweep.cols", "sweep.h_groups", "seed", "jobs", "calib", "reorder",
           "granularity", "sweep"])
    # Small integers only, so no count (grid_size, samples, population, ...)
    # makes a run slow; floats include the Infinity and NaN that json reads.
    CONFIG_VALUES = st.one_of(
        st.integers(-3, 8), st.floats(), st.sampled_from((math.inf, -math.inf, math.nan)),
        st.text(max_size=4), st.booleans(), st.none(), st.lists(st.integers(-2, 4), max_size=3),
        st.sampled_from(("euclidean", "cosine", "layerwise", "channelwise", "method1",
                         "method2")))
    CONFIG_MUTATION = st.tuples(st.sampled_from(CONFIG_FIELDS),
                                st.one_of(st.just("delete"), CONFIG_VALUES))

    @settings(max_examples=40, deadline=None, database=None)
    @given(mutations=st.lists(CONFIG_MUTATION, min_size=1, max_size=3))
    def test_fuzzed_run_config_never_exits_1(self, fixture_dir, mutations):
        """A run config with fields or whole sections deleted or set to a value
        of any type or range is either run or rejected as bad input, never an
        internal error. The toy segment net keeps even default search
        settings fast."""
        raw = {"model": str(fixture_dir / "toy_segment"),
               "calibration": str(fixture_dir / "toy_segment_calib.ptqc"),
               "granularity": {"mode": "method2", "rows_per_group": 2, "h_groups": 2},
               "calib": quick_calib(), "reorder": {"population": 2, "iterations": 1},
               "sweep": {"rows": [1], "h_groups": [1]}, "seed": 0, "jobs": 1}
        for field, value in mutations:
            section, _, key = field.rpartition(".")
            entry = raw.get(section) if section else raw
            if not isinstance(entry, dict):
                continue  # the section itself was deleted or replaced
            if value == "delete":
                entry.pop(key, None)
            else:
                entry[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp) / "run.json", **raw)
            assert main(["quantize", "--config", str(config),
                         "--out", str(Path(tmp) / "out")]) in (0, 2)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_flag_below_1_exits_2(self, fixture_dir, tmp_path, jobs, capsys):
        config = write_config(tmp_path / "run.json", model=str(fixture_dir / "small_cnn"),
                              calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
                              calib=quick_calib(), sweep={"rows": [1], "h_groups": [1]})
        assert main(["sweep", "--config", str(config), "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_seed_flag_below_0_exits_2(self, fixture_dir, tmp_path, capsys):
        config = write_config(tmp_path / "run.json", model=str(fixture_dir / "small_cnn"),
                              calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
                              calib=quick_calib())
        assert main(["quantize", "--config", str(config), "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_predecessors_that_are_a_string_exit_2(self, fixture_dir, tmp_path, capsys):
        def edit(manifest):
            entry = next(e for e in manifest["layers"] if e["id"] == "conv1")
            entry["predecessors"] = "input"
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        err = capsys.readouterr().err
        assert "layer conv1" in err and "'predecessors' must be a list" in err

    @pytest.mark.parametrize("layers", ["conv3", ["conv3", 4]])
    def test_segment_layers_that_are_not_ids_exit_2(self, fixture_dir, tmp_path, layers,
                                                   capsys):
        def edit(manifest):
            manifest["segments"] = [{"id": "block1", "layers": layers}]
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("reorder", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        err = capsys.readouterr().err
        assert "segment block1" in err and "'layers' must be a list" in err

    @pytest.mark.parametrize("text", ["[1, 2", '["a", 1, 2, 3, 4, 5, 6, 7]',
                                      "[1.7, 1, 2, 3, 4, 5, 6, 7]", '{"0": 1}'])
    def test_malformed_eval_labels_exit_2(self, fixture_dir, tmp_path, text, capsys):
        assert self.run("eval", tmp_path, fixture_dir / "small_cnn",
                        fixture_dir / "small_cnn_calib.ptqc",
                        eval_inputs=fixture_dir / "small_cnn_eval.ptqc", labels=text) == 2
        assert "labels.json" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["broken/manifest.json", "run.json", "labels.json"])
    def test_file_that_is_not_utf8_exits_2(self, fixture_dir, tmp_path, capsys, name):
        """A manifest, a run config or a labels file whose first byte is 0xff
        exits 2 naming the bundle or the file; each exited 1 with a
        UnicodeDecodeError."""
        bundle = self.edited_bundle(fixture_dir, tmp_path, lambda manifest: None)
        (tmp_path / "labels.json").write_text(json.dumps([0] * 8))
        config = write_config(tmp_path / "run.json", model=str(bundle),
                              calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
                              calib=quick_calib(),
                              eval={"inputs": str(fixture_dir / "small_cnn_eval.ptqc"),
                                    "labels": str(tmp_path / "labels.json")})
        path = tmp_path / name
        path.write_bytes(b"\xff" + path.read_bytes())
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        named = bundle if name.startswith("broken/") else path
        assert "malformed" in err and f"{named}:" in err and "byte 0xff" in err

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_output_directory_that_cannot_be_made_exits_2(self, fixture_dir, tmp_path,
                                                         capsys, out):
        """An --out that is a regular file, or lies below one, exits 2 naming
        the directory; each exited 1 with FileExistsError or
        NotADirectoryError."""
        (tmp_path / "afile").write_text("")
        config = write_config(tmp_path / "run.json", model=str(fixture_dir / "small_cnn"),
                              calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
                              calib=quick_calib())
        assert main(["quantize", "--config", str(config),
                     "--out", str(tmp_path / out)]) == 2
        assert f"cannot create output directory {tmp_path / out}: " in \
            capsys.readouterr().err

    def test_manifest_that_is_not_an_object_exits_2(self, fixture_dir, tmp_path, capsys):
        bundle = self.edited_bundle(fixture_dir, tmp_path, lambda manifest: None)
        (bundle / "manifest.json").write_text("[]")
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        assert "is not a JSON object" in capsys.readouterr().err

    def test_input_shape_that_is_not_a_list_exits_2(self, fixture_dir, tmp_path, capsys):
        bundle = self.edited_bundle(fixture_dir, tmp_path,
                                    lambda manifest: manifest.update(input_shape=5))
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        assert "'input_shape'" in capsys.readouterr().err

    def hand_built_bundle(self, tmp_path, *convs):
        """A chain of convs on the [3, 8, 8] input of small_cnn's samples;
        each conv is (id, in_channels, out_channels, kernel)."""
        rng = np.random.default_rng(0)
        layers, last = [Layer(id="input", kind="input")], "input"
        for lid, ic, oc, k in convs:
            layers.append(Layer(id=lid, kind="conv", predecessors=[last], out_channels=oc,
                                in_channels=ic, kernel=k,
                                weight=rng.normal(size=(oc, ic, k, k)).astype(np.float32)))
            last = lid
        layers.append(Layer(id="output", kind="output", predecessors=[last]))
        return save_bundle(ModelGraph(layers, input_shape=[1, 3, 8, 8]).validate(),
                           tmp_path / "hand")

    def test_channel_mismatch_exits_2(self, fixture_dir, tmp_path, capsys):
        bundle = self.hand_built_bundle(tmp_path, ("a", 3, 4, 1), ("b", 5, 2, 1))
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        err = capsys.readouterr().err
        assert "layer b: declares 5 input channels" in err and "a gives 4" in err

    def test_kernel_larger_than_input_exits_2(self, fixture_dir, tmp_path, capsys):
        bundle = self.hand_built_bundle(tmp_path, ("big", 3, 2, 9))
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        err = capsys.readouterr().err
        assert "layer big:" in err and "kernel=9" in err

    @pytest.mark.parametrize("edit,command", [(name, command)
                                              for name, (_, _, commands) in
                                              MALFORMED_GRAPHS.items()
                                              for command in commands])
    def test_malformed_graph_exits_2(self, fixture_dir, tmp_path, capsys, edit, command):
        """A layer with more or fewer predecessors than its kind takes, a
        model without exactly one input and one output layer, and a conv or
        linear layer without weights exit 2 naming the fault. Each exited 1
        (ValueError, IndexError or AttributeError) or ran on the first
        predecessor or output layer."""
        manifest_edit, fault, _ = MALFORMED_GRAPHS[edit]
        bundle = self.edited_bundle(fixture_dir, tmp_path, manifest_edit)
        eval_inputs = fixture_dir / "small_cnn_eval.ptqc" if command == "eval" else None
        assert self.run(command, tmp_path, bundle, fixture_dir / "small_cnn_calib.ptqc",
                        eval_inputs=eval_inputs) == 2
        assert fault in capsys.readouterr().err

    def test_shape_only_bundle_has_an_overhead_report(self, fixture_dir, tmp_path):
        """overhead needs no weights: it still runs on a bundle without them."""
        def edit(manifest):
            for entry in manifest["layers"]:
                entry.pop("weight", None)
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("overhead", tmp_path, bundle, fixture_dir / "small_cnn_calib.ptqc") == 0


class TestParallelMap:
    def test_keeps_order_in_worker_processes(self):
        offset = 10  # a closure over local state reaches the workers through the fork
        results = parallel_map(lambda i: (i + offset, os.getpid()), range(7), 2)
        assert [value for value, _ in results] == list(range(10, 17))
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids and len(pids) <= 2

    def test_never_more_workers_than_items(self, monkeypatch):
        pools = []

        class InlinePool:
            """Records the pool size and runs the items in this process."""

            def __init__(self, workers, *, initializer, initargs, **_):
                pools.append(workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr("subquant.cli._forked_work", None)
        assert parallel_map(str, [1, 2, 3], 1000) == ["1", "2", "3"]
        assert parallel_map(str, [4], 8) == ["4"]
        assert parallel_map(str, [5, 6], 1) == ["5", "6"]
        assert parallel_map(str, [], 4) == []
        assert pools == [3]


class TestDeterminism:
    def test_quantize_reports_byte_identical(self, fixture_dir, tmp_path):
        def run(out):
            config = write_config(
                tmp_path / f"{out}.json",
                model=str(fixture_dir / "small_cnn"),
                calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
                granularity={"mode": "method1", "rows_per_group": 2, "cols_per_group": 36},
                calib=quick_calib(),
                seed=3,
                out=str(tmp_path / out))
            assert main(["quantize", "--config", str(config)]) == 0
        run("a")
        run("b")
        for name in ("quantize_summary.json", "layer_distances.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / "quantized" / "tensors.bin").read_bytes() == \
            (tmp_path / "b" / "quantized" / "tensors.bin").read_bytes()

    def test_reorder_reports_byte_identical(self, fixture_dir, tmp_path):
        config = write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "method1", "rows_per_group": 4, "cols_per_group": 27},
            calib=quick_calib(),
            reorder={"population": 4, "iterations": 1},
            seed=3)
        for out in ("a", "b"):
            assert main(["reorder", "--config", str(config), "--out",
                         str(tmp_path / out)]) == 0
        for name in ("segment_scores.csv", "reorder_summary.json",
                     "reordered/manifest.json", "reordered/tensors.bin"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    @settings(max_examples=3, deadline=None, database=None)
    @given(granularity=st.one_of(
               st.fixed_dictionaries({"mode": st.just("method1"),
                                      "rows_per_group": st.sampled_from([2, 4]),
                                      "cols_per_group": st.sampled_from([36, 72])}),
               st.fixed_dictionaries({"mode": st.just("method2"),
                                      "rows_per_group": st.sampled_from([2, 4]),
                                      "h_groups": st.integers(1, 2)})),
           calib=st.fixed_dictionaries({"grid_size": st.integers(2, 4),
                                        "iterations": st.just(1),
                                        "samples": st.integers(2, 6),
                                        "metric": st.sampled_from(["euclidean", "cosine"])}),
           reorder=st.fixed_dictionaries({"population": st.integers(2, 3),
                                          "iterations": st.integers(1, 2),
                                          "max_pairs": st.integers(1, 8)}),
           sweep=st.fixed_dictionaries({"rows": st.lists(st.integers(1, 4), min_size=1,
                                                         max_size=2),
                                        "h_groups": st.lists(st.integers(1, 4), min_size=1,
                                                             max_size=2)}),
           seed=st.integers(0, 2 ** 16))
    def test_random_run_configs_identical_at_jobs_1_and_2(self, fixture_dir, resnet20_config,
                                                          granularity, calib, reorder, sweep,
                                                          seed):
        """sweep on small_cnn, with a 70-sample eval set that its workers read
        in three chunks, and reorder on resnet20_style's 9 segments write the
        same bytes at --jobs 1 and 2 for random small run configs. The
        granularities keep at least 2 rows and 36 columns per group, so that
        three examples take 3-4 s."""
        base = json.loads(resnet20_config.read_text())
        outputs = {"sweep": ("sweep_distance.csv", "sweep_accuracy.csv", "sweep_summary.json"),
                   "reorder": ("segment_scores.csv", "reorder_summary.json",
                               "reordered/manifest.json", "reordered/tensors.bin")}
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_calibration_set(tmp / "eval.ptqc", random_inputs(build_small_cnn(), 70, seed))
            (tmp / "labels.json").write_text(json.dumps([i % 10 for i in range(70)]))
            runs = {"sweep": {"model": str(fixture_dir / "small_cnn"),
                              "calibration": str(fixture_dir / "small_cnn_calib.ptqc"),
                              "sweep": sweep, "eval": {"inputs": str(tmp / "eval.ptqc"),
                                                       "labels": str(tmp / "labels.json")}},
                    "reorder": {"model": base["model"], "calibration": base["calibration"],
                                "granularity": granularity, "reorder": reorder}}
            for command, entries in runs.items():
                config = write_config(tmp / f"{command}.json", calib=calib, seed=seed,
                                      **entries)
                for jobs in ("1", "2"):
                    assert main([command, "--config", str(config), "--jobs", jobs,
                                 "--out", str(tmp / command / jobs)]) == 0
                for name in outputs[command]:
                    assert (tmp / command / "1" / name).read_bytes() == \
                        (tmp / command / "2" / name).read_bytes()

    def test_eval_reports_byte_identical(self, fixture_dir, tmp_path):
        config = write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "method2", "rows_per_group": 1, "h_groups": 4},
            calib=quick_calib(),
            eval={"inputs": str(fixture_dir / "small_cnn_eval.ptqc"),
                  "labels": str(fixture_dir / "small_cnn_eval_labels.json")},
            seed=3)
        for out in ("a", "b"):
            assert main(["eval", "--config", str(config), "--out",
                         str(tmp_path / out)]) == 0
        for name in ("eval_layer_distances.csv", "eval_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    @staticmethod
    def eval_config(fixture_dir, tmp_path):
        return write_config(
            tmp_path / "run.json",
            model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
            granularity={"mode": "method2", "rows_per_group": 1, "h_groups": 4},
            calib=quick_calib(),
            eval={"inputs": str(fixture_dir / "small_cnn_eval.ptqc"),
                  "labels": str(fixture_dir / "small_cnn_eval_labels.json")},
            seed=3)

    def test_eval_reports_identical_in_8_sample_blocks(self, fixture_dir, tmp_path,
                                                       monkeypatch):
        """Both walks in the smallest blocks, 8 samples, write the same bytes
        as in blocks of the default size, which hold all 40 eval samples."""
        save_calibration_set(tmp_path / "eval.ptqc", random_inputs(build_small_cnn(), 40, 5))
        (tmp_path / "labels.json").write_text(json.dumps(list(range(10)) * 4))
        config = write_config(tmp_path / "run.json", **{
            **json.loads(self.eval_config(fixture_dir, tmp_path).read_text()),
            "eval": {"inputs": str(tmp_path / "eval.ptqc"),
                     "labels": str(tmp_path / "labels.json")}})
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr("subquant.tensor._FORWARD_BLOCK_BYTES", 1)
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        for name in ("eval_layer_distances.csv", "eval_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_eval_reports_identical_in_sample_chunks(self, fixture_dir, tmp_path,
                                                     monkeypatch, metric):
        """eval walks 1096 samples in chunks of 32 by default, small_cnn's
        smallest forward block (conv3's and conv4's), the last one 8; with
        the forward block bytes set so that every block, and so every
        chunk, holds 8 samples, and so that one chunk holds all 1096, it
        writes the same bytes."""
        save_calibration_set(tmp_path / "eval.ptqc",
                             random_inputs(build_small_cnn(), 1096, 5))
        labels = np.random.default_rng(3).integers(0, 10, 1096).tolist()
        (tmp_path / "labels.json").write_text(json.dumps(labels))
        config = write_config(tmp_path / "run.json", **{
            **json.loads(self.eval_config(fixture_dir, tmp_path).read_text()),
            "calib": quick_calib(metric=metric),
            "eval": {"inputs": str(tmp_path / "eval.ptqc"),
                     "labels": str(tmp_path / "labels.json")}})
        chunks = []

        class Spy(calib.Lockstep):
            def walk(self, feeds, conv_op):
                chunks.extend(len(x) for x in feeds.values())
                return super().walk(feeds, conv_op)
        monkeypatch.setattr(cli, "Lockstep", Spy)
        reports = []
        for block_bytes, expect in ((tensor._FORWARD_BLOCK_BYTES, [32] * 34 + [8]),
                                    (1, [8] * 137), (1 << 40, [1096])):
            monkeypatch.setattr(tensor, "_FORWARD_BLOCK_BYTES", block_bytes)
            out = tmp_path / str(block_bytes)
            chunks.clear()
            assert main(["eval", "--config", str(config), "--out", str(out)]) == 0
            assert chunks == expect
            reports.append([(out / name).read_bytes() for name in
                            ("eval_layer_distances.csv", "eval_summary.json")])
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_eval_runs_the_shared_float_conv1_once(self, fixture_dir, tmp_path, monkeypatch):
        """conv1 runs in float in both walks on the same eval samples, so it is
        lowered once; fc runs in float too, but on inputs that differ between
        the walks, so it is computed in each."""
        config = self.eval_config(fixture_dir, tmp_path)
        assert main(["quantize", "--config", str(config), "--out", str(tmp_path / "q")]) == 0
        config = write_config(tmp_path / "eval.json",
                              **{**json.loads(config.read_text()),
                                 "model": str(tmp_path / "q" / "quantized")})
        lowered = []
        lower = model.lower_layer_input

        def spy(layer, x):
            lowered.append(layer.id)
            return lower(layer, x)
        monkeypatch.setattr(model, "lower_layer_input", spy)
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "e")]) == 0
        assert lowered.count("conv1") == 1 and lowered.count("fc") == 2


# Under tracemalloc, what 4096 eval samples may add to the peak of 512: the
# labels' int64 array, 8 bytes a sample; one 24 KB chunk of small_cnn
# samples; and two 64 KB leaves of float64 terms (calib._SUM_LEAF each).
# Each streamed distance holds back at most one leaf, and which of them
# hold one when the peak is reached depends on where the chunks fall in
# each layer's pairwise tree, not on how many chunks there are. Measured:
# 119 KB more for eval and 27 KB for a one-cell sweep; a loader that held
# the whole set added 2.8 MB to either.
EXTRA_EVAL_PEAK = 8 * (4096 - 512) + 32 * 3 * 8 * 8 * 4 + 2 * 2 ** 16


def test_eval_peak_memory_does_not_grow_with_the_eval_set(fixture_dir, tmp_path):
    """Under tracemalloc, eval of a quantized small_cnn bundle on 4096
    samples (128 chunks of 32) peaks at most EXTRA_EVAL_PEAK above eval on
    512 samples (16 chunks): the samples are read one chunk at a time.
    Holding the whole set made the peak grow by 3/4 KB a sample, and
    before eval ran in chunks, every layer's whole-set outputs by about
    20 kB a sample."""
    config = TestDeterminism.eval_config(fixture_dir, tmp_path)
    assert main(["quantize", "--config", str(config), "--out", str(tmp_path / "q")]) == 0
    peaks = {}
    for samples in (512, 4096):
        inputs = random_inputs(build_small_cnn(), samples, 1)
        save_calibration_set(tmp_path / f"eval{samples}.ptqc", inputs)
        (tmp_path / f"labels{samples}.json").write_text(json.dumps([0] * samples))
        run = write_config(tmp_path / f"eval{samples}.json", **{
            **json.loads(config.read_text()), "model": str(tmp_path / "q" / "quantized"),
            "eval": {"inputs": str(tmp_path / f"eval{samples}.ptqc"),
                     "labels": str(tmp_path / f"labels{samples}.json")}})
        tracemalloc.start()
        try:
            assert main(["eval", "--config", str(run), "--out", str(tmp_path / "e")]) == 0
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4096] - peaks[512] <= EXTRA_EVAL_PEAK


def quantized_eval_run(bundle, tmp_path, samples):
    """A run config that evaluates `bundle` on `samples` random small_cnn
    inputs, labelled 0, and the inputs' bytes."""
    inputs = random_inputs(build_small_cnn(), samples, 1)
    save_calibration_set(tmp_path / "eval.ptqc", inputs)
    (tmp_path / "labels.json").write_text(json.dumps([0] * samples))
    config = write_config(tmp_path / "eval.json", model=str(bundle), calib=quick_calib(),
                          eval={"inputs": str(tmp_path / "eval.ptqc"),
                                "labels": str(tmp_path / "labels.json")},
                          out=str(tmp_path / "e"))
    return config, inputs.nbytes


class WholeEvalSet:
    """A reader's `count` and `read` over the whole set, loaded into memory
    at once, as eval held it before it read one chunk at a time."""

    def __init__(self, reader):
        self.samples = model.load_calibration_set(reader.path)
        self.count = len(self.samples)

    def read(self, start, stop):
        return self.samples[start:stop]


@pytest.mark.parametrize("samples", [20, 2048 + 13])
def test_eval_reports_match_the_whole_set_in_memory(quantized_small_cnn, tmp_path,
                                                    monkeypatch, samples):
    """eval on fewer samples than one 32-sample chunk, or on a number of
    samples that is no multiple of 32, writes the same bytes as when each
    chunk is sliced from the whole set held in memory."""
    config, _ = quantized_eval_run(quantized_small_cnn, tmp_path, samples)
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "read")]) == 0
    eval_chunks = cli._eval_chunks
    monkeypatch.setattr(cli, "_eval_chunks",
                        lambda graph, eval_x: eval_chunks(graph, WholeEvalSet(eval_x)))
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "whole")]) == 0
    for name in ("eval_layer_distances.csv", "eval_summary.json"):
        assert (tmp_path / "read" / name).read_bytes() == \
            (tmp_path / "whole" / name).read_bytes()
    summary = json.loads((tmp_path / "read" / "eval_summary.json").read_text())
    assert summary["eval_samples"] == samples


def test_eval_runs_each_chunk_through_every_layer_in_one_block(quantized_small_cnn,
                                                                tmp_path, monkeypatch):
    """eval walks 1040 samples depth-first in chunks of 32, the last one 16:
    each conv and linear layer lowers every chunk once in each walk, and
    conv1, which runs in float on the same samples in both walks, once for
    both; no layer lowers an empty batch to check its scales. Chunks of 512
    samples ran conv2 in blocks of 56."""
    config, _ = quantized_eval_run(quantized_small_cnn, tmp_path, 1040)
    lowered = []
    lower = model.lower_layer_input

    def spy(layer, x):
        lowered.append((layer.id, len(x)))
        return lower(layer, x)
    monkeypatch.setattr(model, "lower_layer_input", spy)
    assert main(["eval", "--config", str(config)]) == 0
    per_chunk = ["conv1"] + [lid for lid in ("conv2", "conv3", "conv4", "conv5", "fc")
                             for _walk in ("float", "quantized")]
    assert lowered == [(lid, size) for size in [32] * 32 + [16] for lid in per_chunk]


def test_eval_makes_each_layers_weight_codes_once(quantized_small_cnn, tmp_path,
                                                  monkeypatch):
    """eval quantizes each quantized layer's weights once for all of its 33
    chunks, in layer order."""
    config, _ = quantized_eval_run(quantized_small_cnn, tmp_path, 1040)
    made = []
    quantize_weight_groups = quant.quantize_weight_groups

    def spy(weights, *args):
        made.append(np.shape(weights))
        return quantize_weight_groups(weights, *args)
    monkeypatch.setattr(quant, "quantize_weight_groups", spy)
    assert main(["eval", "--config", str(config)]) == 0
    assert made == [(12, 72), (12, 108), (12, 108), (16, 108)]  # conv2 to conv5


def test_eval_peaks_within_two_forward_blocks_of_its_input(quantized_small_cnn, tmp_path):
    """Under tracemalloc, eval on 2048 samples peaks at most two forward
    blocks (4 MB) above the 1.5 MB eval set: a chunk's activations in both
    walks, each layer's lowered block and the bundle. Chunks of 512 samples
    peaked about 12 MB above it."""
    config, input_bytes = quantized_eval_run(quantized_small_cnn, tmp_path, 2048)
    tracemalloc.start()
    try:
        assert main(["eval", "--config", str(config)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= input_bytes + 2 * tensor._FORWARD_BLOCK_BYTES


def test_sweep_accuracy_peak_memory_does_not_grow_with_the_eval_set(fixture_dir, tmp_path):
    """Under tracemalloc, a one-cell sweep of small_cnn with 4096 eval samples
    peaks at most EXTRA_EVAL_PEAK above the same sweep with 512: its
    accuracy pass reads the samples one chunk at a time, as eval does. A
    loader that held the whole set and its finite mask made the peak grow
    by 1.7 MB here, and on the whole eval set at once, every layer's
    outputs made it grow by about 20 kB a sample."""
    peaks = {}
    for samples in (512, 4096):
        inputs = random_inputs(build_small_cnn(), samples, 1)
        save_calibration_set(tmp_path / f"eval{samples}.ptqc", inputs)
        (tmp_path / f"labels{samples}.json").write_text(json.dumps([0] * samples))
        config = write_config(
            tmp_path / f"sweep{samples}.json", model=str(fixture_dir / "small_cnn"),
            calibration=str(fixture_dir / "small_cnn_calib.ptqc"), calib=quick_calib(),
            sweep={"rows": [1], "h_groups": [2]}, out=str(tmp_path / "s"),
            eval={"inputs": str(tmp_path / f"eval{samples}.ptqc"),
                  "labels": str(tmp_path / f"labels{samples}.json")})
        tracemalloc.start()
        try:
            assert main(["sweep", "--config", str(config)]) == 0
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read_csv(tmp_path / "s" / "sweep_accuracy.csv")[1][1] != "FAILED"
    assert peaks[4096] - peaks[512] <= EXTRA_EVAL_PEAK


# A CLI run in a fresh interpreter, as the console script makes one, given
# its arguments after the code. The last line it prints names which of
# numpy.ma and numpy.random, both loaded by numpy on first use, it imported.
FRESH_RUN = """\
import sys
from subquant.cli import main
code = main(sys.argv[1:])
print(*(name for name in ("numpy.ma", "numpy.random") if name in sys.modules))
sys.exit(code)
"""


def modules_a_fresh_run_imports(command, config):
    """Which of numpy.ma and numpy.random `subquant <command> --jobs 1`
    imports, run in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", FRESH_RUN, command,
         "--config", str(config), "--jobs", "1"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def small_cnn_eval(fixture_dir):
    return {"inputs": str(fixture_dir / "small_cnn_eval.ptqc"),
            "labels": str(fixture_dir / "small_cnn_eval_labels.json")}


@pytest.mark.parametrize("command,net", [("quantize", "small_cnn"), ("sweep", "small_cnn"),
                                         ("reorder", "toy_segment"), ("eval", "small_cnn")])
def test_calibration_leaves_numpy_ma_unimported(fixture_dir, tmp_path, command, net):
    """Each command that calibrates (eval does when the bundle has no scale
    table) merges each input-scale grid's center without np.unique, whose
    first call imports numpy.ma: about 0.85 MB and 14 ms under numpy 2.4."""
    config = write_config(
        tmp_path / "run.json", model=str(fixture_dir / net),
        calibration=str(fixture_dir / f"{net}_calib.ptqc"),
        granularity={"mode": "method2", "rows_per_group": 2, "h_groups": 2},
        calib=quick_calib(), sweep={"rows": [1, 2], "h_groups": [1, 2]},
        reorder={"population": 2, "iterations": 1}, eval=small_cnn_eval(fixture_dir),
        out=str(tmp_path / "out"))
    assert "numpy.ma" not in modules_a_fresh_run_imports(command, config)


def test_eval_of_a_quantized_bundle_imports_neither_numpy_ma_nor_random(
        quantized_small_cnn, fixture_dir, tmp_path):
    """eval of a bundle with a scale table neither samples nor searches."""
    config = write_config(tmp_path / "run.json", model=str(quantized_small_cnn),
                          calib=quick_calib(), eval=small_cnn_eval(fixture_dir),
                          out=str(tmp_path / "out"))
    assert modules_a_fresh_run_imports("eval", config) == set()
