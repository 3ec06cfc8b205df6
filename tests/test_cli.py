"""End-to-end CLI runs on the demo bundles."""

import csv
import json
import math
import shutil

import numpy as np
import pytest

from conftest import write_config
from subquant.cli import main
from subquant.errors import BadInputError
from subquant.fixtures import build_small_cnn
from subquant.model import Layer, ModelGraph, load_bundle, save_bundle, save_calibration_set


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def quick_calib(**overrides):
    cfg = {"grid_size": 12, "iterations": 1, "samples": 8}
    cfg.update(overrides)
    return cfg


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
        for lid, info in loaded.scales.items():
            layer = loaded.layer(lid)
            assert info.cols_per_group == math.ceil(layer.weights_per_channel / 4)
            assert info.scales.weight_scales.shape[1] == 4

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

    def test_grid_shape_and_failed_cell(self, fixture_dir, tmp_path):
        config = self.base_config(fixture_dir, tmp_path, {"rows": [0, 1], "cols": [36]})
        assert main(["sweep", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "sweep_distance.csv")
        assert rows[0] == ["rows\\cols", "36"]
        assert rows[1][1] == "FAILED"  # rows_per_group=0 is rejected per cell
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

    def test_empty_sweep_exits_2(self, fixture_dir, tmp_path):
        config = self.base_config(fixture_dir, tmp_path, {"rows": []})
        assert main(["sweep", "--config", str(config)]) == 2


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

    def test_no_segments_is_noop(self, tmp_path, capsys):
        graph = build_small_cnn()
        graph.segments = []
        save_bundle(graph, tmp_path / "noseg")
        save_calibration_set(tmp_path / "calib.ptqc",
                             np.random.default_rng(0).normal(
                                 size=(4, 3, 8, 8)).astype(np.float32))
        config = write_config(
            tmp_path / "run.json",
            model=str(tmp_path / "noseg"),
            calibration=str(tmp_path / "calib.ptqc"),
            granularity={"mode": "channelwise"},
            calib=quick_calib(samples=4),
            out=str(tmp_path / "out"))
        assert main(["reorder", "--config", str(config)]) == 0
        assert "nothing to reorder" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "reorder_summary.json").read_text())
        assert summary["segments"] == []


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

    @pytest.mark.parametrize("key,value", [("weight_bits", 1), ("act_bits", 17),
                                           ("rows_per_group", 0)])
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
            assert load_bundle(tmp_path).scales["fc"].cols_per_group == width
        else:
            with pytest.raises(BadInputError, match="layer fc: .*exact float64 range"):
                load_bundle(tmp_path)

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
