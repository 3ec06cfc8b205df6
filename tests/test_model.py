"""Bundle round-trips, BN folding, and the float forward pass."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subquant.errors import BadInputError
from subquant.fixtures import build_resnet20_style, build_small_cnn, random_inputs
from subquant.model import (
    check_shapes,
    BatchNormParams,
    Layer,
    ModelGraph,
    QuantizedLayerInfo,
    execute,
    float_conv,
    fold_batchnorm,
    forward_float,
    fuse_activations,
    load_bundle,
    load_calibration_set,
    lower_layer_input,
    prepare_for_quantization,
    propagate_shapes,
    quantized_conv,
    save_bundle,
    save_calibration_set,
)
from subquant.quant import ScaleSet, quantize_values


class TestBundleIO:
    def test_round_trip_preserves_blobs(self, tmp_path):
        graph = build_small_cnn()
        save_bundle(graph, tmp_path / "m")
        loaded = load_bundle(tmp_path / "m")
        assert [l.id for l in loaded.layers] == [l.id for l in graph.layers]
        for a, b in zip(graph.layers, loaded.layers):
            assert a.kind == b.kind and a.predecessors == b.predecessors
            if a.weight is not None:
                np.testing.assert_array_equal(a.weight, b.weight)
            if a.bias is not None:
                np.testing.assert_array_equal(a.bias, b.bias)
            if a.bn is not None:
                np.testing.assert_array_equal(a.bn.gamma, b.bn.gamma)
                np.testing.assert_array_equal(a.bn.running_var, b.bn.running_var)
        assert loaded.input_shape == graph.input_shape
        assert [s.layer_ids for s in loaded.segments] == [s.layer_ids for s in graph.segments]

    def test_double_save_is_byte_identical(self, tmp_path):
        graph = build_small_cnn()
        save_bundle(graph, tmp_path / "a")
        save_bundle(graph, tmp_path / "b")
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
            (tmp_path / "b" / "manifest.json").read_bytes()
        assert (tmp_path / "a" / "tensors.bin").read_bytes() == \
            (tmp_path / "b" / "tensors.bin").read_bytes()

    def test_shape_mismatch_names_layer(self, tmp_path):
        bundle = tmp_path / "m"
        bundle.mkdir()
        blob = np.zeros(3 * 9, dtype="<f4")  # 3 rows worth, manifest claims 4
        (bundle / "tensors.bin").write_bytes(blob.tobytes())
        manifest = {
            "version": 1, "input_shape": [1, 1, 3, 3],
            "layers": [
                {"id": "input", "kind": "input", "predecessors": []},
                {"id": "badconv", "kind": "conv", "predecessors": ["input"],
                 "out_channels": 4, "in_channels": 1, "kernel": 3, "stride": 1,
                 "padding": 1, "quantize": True,
                 "weight": {"file": "tensors.bin", "offset": 0, "count": 27}},
            ],
        }
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadInputError, match="badconv"):
            load_bundle(bundle)

    def test_blob_out_of_bounds_names_layer(self, tmp_path):
        bundle = tmp_path / "m"
        bundle.mkdir()
        (bundle / "tensors.bin").write_bytes(b"\x00" * 16)
        manifest = {
            "version": 1, "input_shape": [1, 1, 1, 1],
            "layers": [
                {"id": "input", "kind": "input", "predecessors": []},
                {"id": "cx", "kind": "conv", "predecessors": ["input"],
                 "out_channels": 1, "in_channels": 1, "kernel": 1,
                 "weight": {"file": "tensors.bin", "offset": 8, "count": 9}},
            ],
        }
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadInputError, match="cx"):
            load_bundle(bundle)

    @pytest.mark.parametrize("field,value", [
        ("layers", {}), ("segments", "s1"), ("input_shape", [1, "3"]),
        ("input_shape", [1, 3.0, 8, 8]), ("reorderings", 5), ("scales", [])])
    def test_manifest_field_of_wrong_type_names_field(self, tmp_path, field, value):
        save_bundle(build_small_cnn(), tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest[field] = value
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadInputError, match=f"'{field}'"):
            load_bundle(tmp_path / "m")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(BadInputError):
            load_bundle(tmp_path / "nothing")

    def test_resnet20_style_fixture_shape(self, tmp_path):
        graph = build_resnet20_style()
        save_bundle(graph, tmp_path / "r20")
        loaded = load_bundle(tmp_path / "r20")
        convs = [l for l in loaded.layers if l.kind == "conv"]
        assert len(convs) == 20
        assert len(loaded.segments) == 9
        assert loaded.layer("conv0").quantize is False
        assert loaded.layer("fc").quantize is False

    def test_implicit_quantize_default_excludes_boundary_layers(self, tmp_path):
        bundle = tmp_path / "m"
        bundle.mkdir()
        w = np.zeros(4, dtype="<f4")
        (bundle / "tensors.bin").write_bytes(w.tobytes() * 3)
        def conv(lid, pred, offset):
            return {"id": lid, "kind": "conv", "predecessors": [pred],
                    "out_channels": 2, "in_channels": 2, "kernel": 1,
                    "weight": {"file": "tensors.bin", "offset": offset, "count": 4}}
        manifest = {
            "version": 1, "input_shape": [1, 2, 1, 1],
            "layers": [{"id": "input", "kind": "input", "predecessors": []},
                       conv("first", "input", 0), conv("mid", "first", 16),
                       conv("last", "mid", 32)],
        }
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_bundle(bundle)
        assert loaded.layer("first").quantize is False
        assert loaded.layer("mid").quantize is True
        assert loaded.layer("last").quantize is False


class TestCalibrationSetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(5, 3, 4, 4)).astype(np.float32)
        save_calibration_set(tmp_path / "c.ptqc", samples)
        loaded = load_calibration_set(tmp_path / "c.ptqc")
        np.testing.assert_array_equal(loaded, samples)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "c.ptqc").write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadInputError):
            load_calibration_set(tmp_path / "c.ptqc")

    def test_truncated_payload(self, tmp_path):
        samples = np.zeros((4, 2, 2), dtype=np.float32)
        save_calibration_set(tmp_path / "c.ptqc", samples)
        raw = (tmp_path / "c.ptqc").read_bytes()
        (tmp_path / "bad.ptqc").write_bytes(raw[:-8])
        with pytest.raises(BadInputError):
            load_calibration_set(tmp_path / "bad.ptqc")

    def test_missing_file(self, tmp_path):
        with pytest.raises(BadInputError, match="missing.ptqc"):
            load_calibration_set(tmp_path / "missing.ptqc")


class TestBatchNormFolding:
    def _conv1x1(self, rng, oc=4, ic=3, bias=True):
        return Layer(id="c", kind="conv", predecessors=["input"], out_channels=oc,
                     in_channels=ic, kernel=1,
                     weight=rng.normal(size=(oc, ic, 1, 1)).astype(np.float32),
                     bias=rng.normal(size=oc).astype(np.float32) if bias else None)

    def test_identity_bn_is_a_noop(self):
        rng = np.random.default_rng(1)
        conv = self._conv1x1(rng)
        eps = 1e-5
        bn = BatchNormParams(np.ones(4, np.float32), np.zeros(4, np.float32),
                             np.zeros(4, np.float32),
                             np.full(4, 1.0 - eps, np.float32), eps)
        folded = fold_batchnorm(conv, bn)
        np.testing.assert_allclose(folded.weight, conv.weight, rtol=1e-6)
        np.testing.assert_allclose(folded.bias, conv.bias, rtol=1e-6)

    def test_pure_scale_shift(self):
        rng = np.random.default_rng(2)
        conv = self._conv1x1(rng, bias=False)
        eps = 1e-5
        bn = BatchNormParams(np.full(4, 2.0, np.float32), np.ones(4, np.float32),
                             np.zeros(4, np.float32),
                             np.full(4, 1.0 - eps, np.float32), eps)
        folded = fold_batchnorm(conv, bn)
        np.testing.assert_allclose(folded.weight, 2.0 * conv.weight, rtol=1e-6)
        np.testing.assert_allclose(folded.bias, np.ones(4), rtol=1e-6)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(3)
        conv = self._conv1x1(rng)
        bn = BatchNormParams(*(np.ones(5, np.float32),) * 4)
        with pytest.raises(ValueError):
            fold_batchnorm(conv, bn)

    def test_folded_network_matches_unfolded(self):
        graph = build_small_cnn()
        x = random_inputs(graph, 4, seed=9)
        before = forward_float(graph, x)
        after = forward_float(prepare_for_quantization(graph), x)
        np.testing.assert_allclose(after["output"], before["output"],
                                   rtol=1e-4, atol=1e-4)

    def test_random_bn_on_1x1_conv_network(self):
        rng = np.random.default_rng(4)
        conv = self._conv1x1(rng)
        bn = BatchNormParams(rng.uniform(0.5, 2, 4).astype(np.float32),
                             rng.normal(size=4).astype(np.float32),
                             rng.normal(size=4).astype(np.float32),
                             rng.uniform(0.5, 1.5, 4).astype(np.float32), 1e-5)
        bn_layer = Layer(id="b", kind="batchnorm", predecessors=["c"], bn=bn)
        layers = [Layer(id="input", kind="input"), conv, bn_layer,
                  Layer(id="output", kind="output", predecessors=["b"])]
        graph = ModelGraph(layers, input_shape=[1, 3, 5, 5]).validate()
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        want = forward_float(graph, x)["output"]
        got = forward_float(prepare_for_quantization(graph), x)["output"]
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestExecute:
    def test_consumed_activation_released_mid_walk(self):
        graph = prepare_for_quantization(build_small_cnn())
        x = random_inputs(graph, 2, seed=0)
        alive = {}
        for layer, out in execute(graph.layers, {graph.input_id: x}, float_conv):
            alive[layer.id] = weakref.ref(out)
            if layer.id == "conv4":
                # add1 still needs the shortcut
                assert alive["conv2"]() is not None
            if layer.id == "add1":
                assert alive["conv2"]() is None
                assert alive["conv4"]() is None
        assert alive["add1"]() is None

    def test_sub_graph_runs_from_its_entry_feed(self):
        graph = prepare_for_quantization(build_small_cnn())
        full = forward_float(graph, random_inputs(graph, 2, seed=1))
        block = [graph.layer("conv3"), graph.layer("conv4")]
        outs = dict((layer.id, out) for layer, out in
                    execute(block, {"conv2": full["conv2"]}, float_conv))
        np.testing.assert_array_equal(outs["conv4"], full["conv4"])

    def test_conv_op_sees_lowered_matrices(self):
        """conv_op gets the incoming activation; lowering it gives the
        float64 [J, P] matrix."""
        graph = prepare_for_quantization(build_small_cnn())
        seen, lowered = {}, {}

        def conv_op(layer, x):
            seen[layer.id] = x.shape
            cols, _ = lower_layer_input(layer, x)
            lowered[layer.id] = (cols.shape, cols.dtype)
            return float_conv(layer, x)

        x = random_inputs(graph, 3, seed=2)
        list(execute(graph.layers, {graph.input_id: x}, conv_op))
        assert seen["conv1"] == (3, 3, 8, 8)
        assert seen["conv5"] == (3, 12, 8, 8)
        assert seen["fc"] == (3, 16, 4, 4)
        assert lowered["conv1"] == ((3 * 3 * 3, 3 * 8 * 8), np.float64)
        assert lowered["conv5"] == ((12 * 3 * 3, 3 * 4 * 4), np.float64)
        assert lowered["fc"] == ((16 * 4 * 4, 3), np.float64)

    def test_input_channel_mismatch_names_layer(self):
        graph = prepare_for_quantization(build_small_cnn())
        x = np.zeros((1, 4, 8, 8), np.float32)
        with pytest.raises(ValueError, match="layer conv1: expected 3 input channels"):
            forward_float(graph, x)

    def test_missing_weights_named(self):
        graph = prepare_for_quantization(build_small_cnn())
        graph.layer("conv2").weight = None
        with pytest.raises(ValueError, match="layer conv2 has no weights loaded"):
            forward_float(graph, random_inputs(graph, 1, seed=0))

    @pytest.mark.parametrize("kind,bound", [("float", 1.45), ("quantized", 1.75)])
    def test_conv_step_peak_memory(self, kind, bound):
        """Traced peak of running conv3 on 256 samples, in units of its float64
        [J, P] matrix: the float32 lowering plus its float64 copy, or codes of
        the lowered matrix beside the lowered matrix, would exceed the bound."""
        graph = prepare_for_quantization(build_small_cnn())
        layer = graph.layer("conv3")
        info = QuantizedLayerInfo(ScaleSet(np.full((12, 4), 0.02), 0.05), 1, 27)
        conv_op = float_conv if kind == "float" else quantized_conv({"conv3": info})
        walk = execute(graph.layers, {graph.input_id: random_inputs(graph, 256, seed=0)},
                       conv_op)
        for done, _ in walk:
            if done.id == layer.predecessors[0]:
                break
        tracemalloc.start()
        try:
            stepped, _ = next(walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stepped is layer
        lowered_bytes = layer.weights_per_channel * 256 * 8 * 8 * 8
        assert peak / lowered_bytes < bound


@st.composite
def layer_and_activation(draw):
    """A conv (kernel 1 or 3, stride 1 or 2, padding 0 or 1) or a linear layer,
    with a float32 activation that may hold signed zeros, infinities and NaN."""
    kind = draw(st.sampled_from(["conv", "linear"]))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kernel, stride, padding = (draw(st.sampled_from([1, 3])), draw(st.sampled_from([1, 2])),
                               draw(st.sampled_from([0, 1])))
    low = max(1, kernel - 2 * padding) if kind == "conv" else 1
    h, w = draw(st.integers(low, 6)), draw(st.integers(low, 6))
    if kind == "conv":
        layer = Layer(id="l", kind="conv", out_channels=1, in_channels=c, kernel=kernel,
                      stride=stride, padding=padding)
    else:
        layer = Layer(id="l", kind="linear", out_channels=1, in_channels=c * h * w)
    x = draw(hnp.arrays(np.float32, (n, c, h, w), elements=st.floats(width=32)))
    return layer, x


@settings(max_examples=150, deadline=None, database=None)
@given(case=layer_and_activation(),
       scale=st.floats(min_value=1e-4, max_value=1e4),
       bits=st.integers(2, 16))
def test_quantizing_commutes_with_lowering(case, scale, bits):
    """Lowering copies elements and pads with +0.0, whose code is +0.0, so
    quantize-then-lower equals lower-then-quantize bit for bit."""
    layer, x = case
    with np.errstate(over="ignore"):
        early, _ = lower_layer_input(layer, quantize_values(x, scale, bits))
        late = quantize_values(lower_layer_input(layer, x)[0], scale, bits)
    assert early.dtype == late.dtype == np.float64
    assert np.array_equal(early, late, equal_nan=True)
    assert np.array_equal(np.signbit(early), np.signbit(late))


class TestForward:
    def test_identity_conv_relu_zeroes_negatives(self):
        w = np.eye(2, dtype=np.float32).reshape(2, 2, 1, 1)
        layers = [Layer(id="input", kind="input"),
                  Layer(id="c", kind="conv", predecessors=["input"], out_channels=2,
                        in_channels=2, kernel=1, activation="relu", weight=w),
                  Layer(id="output", kind="output", predecessors=["c"])]
        graph = ModelGraph(layers, input_shape=[1, 2, 2, 2]).validate()
        x = -np.ones((1, 2, 2, 2), dtype=np.float32)
        out = forward_float(graph, x)["output"]
        np.testing.assert_array_equal(out, np.zeros_like(x))

    def test_zero_weight_second_conv_keeps_shortcut(self):
        rng = np.random.default_rng(5)
        w1 = rng.normal(size=(3, 3, 3, 3)).astype(np.float32)
        layers = [Layer(id="input", kind="input"),
                  Layer(id="c1", kind="conv", predecessors=["input"], out_channels=3,
                        in_channels=3, kernel=3, padding=1, activation="relu", weight=w1),
                  Layer(id="c2", kind="conv", predecessors=["c1"], out_channels=3,
                        in_channels=3, kernel=3, padding=1,
                        weight=np.zeros((3, 3, 3, 3), np.float32)),
                  Layer(id="add", kind="residual-add", predecessors=["c2", "input"]),
                  Layer(id="output", kind="output", predecessors=["add"])]
        graph = ModelGraph(layers, input_shape=[1, 3, 4, 4]).validate()
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = forward_float(graph, x)
        np.testing.assert_array_equal(out["output"], x)

    def test_forward_is_deterministic(self):
        graph = build_resnet20_style()
        x = random_inputs(graph, 3, seed=1)
        a = forward_float(graph, x)
        b = forward_float(graph, x)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_fuse_activations_rewires(self):
        graph = prepare_for_quantization(build_small_cnn())
        kinds = {l.id: l.kind for l in graph.layers}
        assert "conv1.bn" not in kinds and "conv1.relu" not in kinds
        assert graph.layer("conv1").activation == "relu"
        assert graph.layer("conv4").activation == "identity"
        # post-add relu cannot fuse into a conv
        assert kinds["add1.relu"] == "relu"
        assert graph.layer("add1").predecessors == ["conv4", "conv2"]

    def test_propagate_shapes(self):
        graph = build_small_cnn()
        shapes = propagate_shapes(graph, batch=2)
        assert shapes["conv1"] == (2, 8, 8, 8)
        assert shapes["conv5"] == (2, 16, 4, 4)
        assert shapes["fc"] == (2, 10)
        assert shapes["output"] == (2, 10)

    def test_check_shapes_rejects_residual_add_of_two_shapes(self):
        layers = [Layer(id="input", kind="input"),
                  Layer(id="c", kind="conv", predecessors=["input"], out_channels=3,
                        in_channels=3, kernel=3, weight=np.zeros((3, 3, 3, 3), np.float32)),
                  Layer(id="add", kind="residual-add", predecessors=["c", "input"]),
                  Layer(id="output", kind="output", predecessors=["add"])]
        graph = ModelGraph(layers, input_shape=[1, 3, 4, 4]).validate()
        with pytest.raises(BadInputError, match=r"layer add: .*\[3, 2, 2\] vs \[3, 4, 4\]"):
            check_shapes(graph)

    def test_check_shapes_accepts_the_fixtures(self):
        for graph in (build_small_cnn(), build_resnet20_style()):
            check_shapes(prepare_for_quantization(graph))
