"""End-to-end CLI runs on the demo bundles."""

import csv
import json
import math
import shutil
import struct

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

    def run(self, command, tmp_path, model, calibration, eval_inputs=None, labels=8):
        """`labels` is a label count, or the labels file's text."""
        extra = {}
        if eval_inputs is not None:
            (tmp_path / "labels.json").write_text(
                json.dumps([0] * labels) if isinstance(labels, int) else labels)
            extra["eval"] = {"inputs": str(eval_inputs),
                             "labels": str(tmp_path / "labels.json")}
        config = write_config(
            tmp_path / "run.json", model=str(model), calibration=str(calibration),
            granularity={"mode": "channelwise"}, calib=quick_calib(),
            reorder={"population": 2, "iterations": 1},
            sweep={"rows": [1], "h_groups": [1]}, out=str(tmp_path / "out"), **extra)
        return main([command, "--config", str(config)])

    def test_conv_without_out_channels_exits_2(self, fixture_dir, tmp_path, capsys):
        def edit(manifest):
            entry = next(e for e in manifest["layers"] if e["id"] == "conv3")
            del entry["out_channels"]
        bundle = self.edited_bundle(fixture_dir, tmp_path, edit)
        assert self.run("quantize", tmp_path, bundle,
                        fixture_dir / "small_cnn_calib.ptqc") == 2
        err = capsys.readouterr().err
        assert "conv3" in err and "out_channels" in err

    def test_truncated_ptqc_header_exits_2(self, fixture_dir, tmp_path, capsys):
        (tmp_path / "short.ptqc").write_bytes(b"PTQC" + struct.pack("<I", 4))
        assert self.run("quantize", tmp_path, fixture_dir / "small_cnn",
                        tmp_path / "short.ptqc") == 2
        assert "truncated header" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["quantize", "sweep", "reorder", "eval"])
    def test_calibration_shape_mismatch_exits_2(self, fixture_dir, tmp_path, command,
                                                capsys):
        save_calibration_set(tmp_path / "small.ptqc", np.zeros((4, 3, 7, 7), np.float32))
        assert self.run(command, tmp_path, fixture_dir / "small_cnn",
                        tmp_path / "small.ptqc",
                        eval_inputs=fixture_dir / "small_cnn_eval.ptqc") == 2
        err = capsys.readouterr().err
        assert "small.ptqc" in err and "[3, 7, 7]" in err and "[3, 8, 8]" in err

    def test_eval_set_shape_mismatch_exits_2(self, fixture_dir, tmp_path, capsys):
        save_calibration_set(tmp_path / "small.ptqc", np.zeros((4, 3, 7, 7), np.float32))
        assert self.run("eval", tmp_path, fixture_dir / "small_cnn",
                        fixture_dir / "small_cnn_calib.ptqc",
                        eval_inputs=tmp_path / "small.ptqc", labels=4) == 2
        err = capsys.readouterr().err
        assert "small.ptqc" in err and "[3, 7, 7]" in err

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
