"""Bundle round-trips, BN folding, and the float forward pass."""

import itertools
import json
import os
import re
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import BLOB_INTEGERS_THAT_ARE_NOT_INTS
from reference_search import forward_float
from subquant.calib import CalibConfig, calibrate_network, plan_layer_input
from subquant.errors import BadInputError
from subquant.fixtures import build_resnet20_style, build_small_cnn, random_inputs
from subquant.model import (
    check_shapes,
    BatchNormParams,
    CalibrationSetReader,
    Layer,
    ModelGraph,
    execute,
    float_conv,
    fold_all_batchnorms,
    fold_batchnorm,
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
from subquant import model, tensor
from subquant.tensor import conv_reference
from subquant.quant import (
    GRANULARITY_MODES,
    GranularityConfig,
    ScaleSet,
    make_partition,
    quantize_values,
    quantized_layer,
)


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

    @pytest.mark.parametrize("offset", [16, -4])
    def test_blob_out_of_bounds_names_layer(self, tmp_path, offset):
        """A one-element weight blob whose count is right, starting at the
        16-byte file's end or before its start."""
        bundle = tmp_path / "m"
        bundle.mkdir()
        (bundle / "tensors.bin").write_bytes(b"\x00" * 16)
        manifest = {
            "version": 1, "input_shape": [1, 1, 1, 1],
            "layers": [
                {"id": "input", "kind": "input", "predecessors": []},
                {"id": "cx", "kind": "conv", "predecessors": ["input"],
                 "out_channels": 1, "in_channels": 1, "kernel": 1,
                 "weight": {"file": "tensors.bin", "offset": offset, "count": 1}},
            ],
        }
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadInputError, match=rf"layer cx: weight blob \[{offset}, "
                                                rf"{offset + 4}\) outside tensor file"):
            load_bundle(bundle)

    @pytest.mark.parametrize("lid,what,field,value", BLOB_INTEGERS_THAT_ARE_NOT_INTS)
    def test_blob_integer_that_is_not_an_int_names_layer(self, tmp_path, lid, what, field,
                                                         value):
        """A blob's offset and count are integers; int() took a float or a
        numeric string as one, and the blob loaded."""
        save_bundle(build_small_cnn(), tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        next(l for l in manifest["layers"] if l["id"] == lid)[what][field] = value
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadInputError,
                           match=re.escape(f"layer {lid}: malformed {what} blob reference")):
            load_bundle(tmp_path / "m")

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


@settings(max_examples=30, deadline=None, database=None)
@given(build=st.sampled_from([build_small_cnn, build_resnet20_style]),
       mode=st.sampled_from(GRANULARITY_MODES), rows=st.integers(1, 20),
       cols=st.integers(1, 300), h_groups=st.integers(1, 12))
def test_scale_sets_keep_their_partitions_through_a_bundle(tmp_path_factory, build, mode,
                                                           rows, cols, h_groups):
    """A calibrated bundle, in every granularity mode, loads back with each
    ScaleSet's partition (row and column ranges included) and scales, and
    the loaded bundle saves to the same manifest bytes."""
    graph = prepare_for_quantization(build())
    granularity = GranularityConfig(mode, rows, cols, h_groups)
    samples = random_inputs(graph, 2, seed=0)
    graph.scales = calibrate_network(graph.layers, {graph.input_id: samples}, granularity,
                                     CalibConfig(grid_size=2, iterations=1, samples=2)).scales
    root = tmp_path_factory.mktemp("bundles")
    save_bundle(graph, root / "calibrated")
    loaded = load_bundle(root / "calibrated")
    assert loaded.scales.keys() == graph.scales.keys()
    for lid, scales in graph.scales.items():
        layer, got = graph.layer(lid), loaded.scales[lid]
        assert scales.partition == make_partition(layer.out_channels,
                                                  layer.weights_per_channel, granularity)
        assert got.partition == scales.partition
        assert got.partition.row_ranges == scales.partition.row_ranges
        assert got.partition.col_ranges == scales.partition.col_ranges
        assert got.weight_scales.tobytes() == scales.weight_scales.tobytes()
        assert (got.input_scale, got.weight_bits, got.act_bits) == \
            (scales.input_scale, scales.weight_bits, scales.act_bits)
    save_bundle(loaded, root / "resaved")
    assert ((root / "resaved" / "manifest.json").read_bytes()
            == (root / "calibrated" / "manifest.json").read_bytes())


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

    def test_load_peaks_at_the_samples_and_one_slice_mask(self, tmp_path):
        """Under tracemalloc, loading 3 MB of samples peaks at the samples
        plus one 64 KB slice's finite mask (and 16 KB for the reader and its
        file buffer): the values are checked a slice at a time. A mask of the whole set peaked
        at 5/4 of the samples, and reading the file's bytes first, then
        copying the samples out, at 9/4."""
        samples = np.random.default_rng(0).normal(size=(4096, 3, 8, 8)).astype(np.float32)
        save_calibration_set(tmp_path / "c.ptqc", samples)
        tracemalloc.start()
        try:
            loaded = load_calibration_set(tmp_path / "c.ptqc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.tobytes() == samples.tobytes()
        assert peak <= samples.nbytes + model._FINITE_SLICE + 2 ** 14

    def test_reader_reads_any_range_of_samples(self, tmp_path):
        """read(start, stop) gives the samples of that range, clipped to the
        set as a slice is, and each reader's reads are independent of any
        other's."""
        samples = np.random.default_rng(1).normal(size=(13, 2, 3)).astype(np.float32)
        save_calibration_set(tmp_path / "c.ptqc", samples)
        with CalibrationSetReader(tmp_path / "c.ptqc") as reader, \
                CalibrationSetReader(tmp_path / "c.ptqc") as other:
            assert (reader.count, reader.dims) == (13, (2, 3))
            for start, stop in ((0, 13), (0, 5), (5, 12), (12, 13), (8, 40), (13, 20),
                                (4, 4)):
                np.testing.assert_array_equal(reader.read(start, stop),
                                              samples[start:stop])
                np.testing.assert_array_equal(other.read(stop, start), samples[stop:start])
            assert reader.read(3, 5).dtype == np.float32

    def test_non_finite_value_is_named_by_the_file(self, tmp_path):
        """A NaN in the last sample fails the read of any range that holds it,
        naming the file, and no other."""
        samples = np.zeros((70, 3, 4), np.float32)
        samples[-1, 2, 3] = np.nan
        save_calibration_set(tmp_path / "nan.ptqc", samples)
        with CalibrationSetReader(tmp_path / "nan.ptqc") as reader:
            assert not reader.read(0, 69).any()
            with pytest.raises(BadInputError, match="nan.ptqc contains non-finite values"):
                reader.read(64, 70)
        with pytest.raises(BadInputError, match="nan.ptqc contains non-finite values"):
            load_calibration_set(tmp_path / "nan.ptqc")

    def test_file_truncated_after_open_is_bad_input(self, tmp_path):
        """The header is checked once, when the reader opens the file; a read
        that reaches past the end of a file truncated since then names the
        file and the samples it could not read."""
        samples = np.ones((10, 4), np.float32)
        save_calibration_set(tmp_path / "c.ptqc", samples)
        with CalibrationSetReader(tmp_path / "c.ptqc") as reader:
            os.truncate(tmp_path / "c.ptqc", 16 + 6 * 16 + 8)
            np.testing.assert_array_equal(reader.read(0, 6), samples[:6])
            with pytest.raises(BadInputError, match=r"c\.ptqc: the file ends at byte 120, "
                                                    r"inside samples \[4, 10\)"):
                reader.read(4, 10)


class TestBatchNormFolding:
    def _conv1x1(self, rng, oc=4, ic=3, bias=True):
        return Layer(id="c", kind="conv", predecessors=["input"], out_channels=oc,
                     in_channels=ic, kernel=1,
                     weight=rng.normal(size=(oc, ic, 1, 1)).astype(np.float32),
                     bias=rng.normal(size=oc).astype(np.float32) if bias else None)

    @staticmethod
    def _bn_layer(bn):
        return Layer(id="c.bn", kind="batchnorm", predecessors=["c"], bn=bn)

    def test_identity_bn_is_a_noop(self):
        rng = np.random.default_rng(1)
        conv = self._conv1x1(rng)
        eps = 1e-5
        bn = BatchNormParams(np.ones(4, np.float32), np.zeros(4, np.float32),
                             np.zeros(4, np.float32),
                             np.full(4, 1.0 - eps, np.float32), eps)
        folded = fold_batchnorm(conv, self._bn_layer(bn))
        np.testing.assert_allclose(folded.weight, conv.weight, rtol=1e-6)
        np.testing.assert_allclose(folded.bias, conv.bias, rtol=1e-6)

    def test_pure_scale_shift(self):
        rng = np.random.default_rng(2)
        conv = self._conv1x1(rng, bias=False)
        eps = 1e-5
        bn = BatchNormParams(np.full(4, 2.0, np.float32), np.ones(4, np.float32),
                             np.zeros(4, np.float32),
                             np.full(4, 1.0 - eps, np.float32), eps)
        folded = fold_batchnorm(conv, self._bn_layer(bn))
        np.testing.assert_allclose(folded.weight, 2.0 * conv.weight, rtol=1e-6)
        np.testing.assert_allclose(folded.bias, np.ones(4), rtol=1e-6)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(3)
        conv = self._conv1x1(rng)
        bn = BatchNormParams(*(np.ones(5, np.float32),) * 4)
        with pytest.raises(BadInputError, match=r"batchnorm c\.bn into c: 5 BN channels"):
            fold_batchnorm(conv, self._bn_layer(bn))

    def test_activation_before_bn(self):
        conv = replace(self._conv1x1(np.random.default_rng(3)), activation="relu")
        bn = BatchNormParams(*(np.ones(4, np.float32),) * 4)
        with pytest.raises(BadInputError, match=r"batchnorm c\.bn into c: .*'relu'"):
            fold_batchnorm(conv, self._bn_layer(bn))

    @pytest.mark.parametrize("rewire,message", [
        # a BN behind the residual add, which has two predecessors
        (lambda g: g.layer("conv5.bn").predecessors.append("conv2.relu"),
         r"batchnorm conv5\.bn: it needs one predecessor conv"),
        # a BN behind a relu, not a conv
        (lambda g: g.layer("conv2.bn").predecessors.__setitem__(0, "conv1.relu"),
         r"batchnorm conv2\.bn into conv1\.relu: conv1\.relu is not a conv"),
        # a BN behind a conv that also feeds another layer
        (lambda g: g.layer("add1").predecessors.__setitem__(1, "conv2"),
         r"batchnorm conv2\.bn into conv2: conv2 is not a conv that feeds only"),
    ], ids=["two-predecessors", "behind-a-relu", "conv-feeds-another-layer"])
    def test_unfoldable_graph_is_bad_input(self, rewire, message):
        graph = build_small_cnn()
        rewire(graph)
        with pytest.raises(BadInputError, match=message):
            fold_all_batchnorms(graph)

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
            cols = lower_layer_input(layer, x)
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
        with pytest.raises(ValueError, match="layer conv1: declares 3 input channels, "
                                             "but input gives 4"):
            forward_float(graph, x)

    def test_missing_weights_named(self):
        graph = prepare_for_quantization(build_small_cnn())
        graph.layer("conv2").weight = None
        with pytest.raises(ValueError, match="layer conv2 has no weights loaded"):
            forward_float(graph, random_inputs(graph, 1, seed=0))

    @pytest.mark.parametrize("kind,bound", [("float", 1.45), ("quantized", 0.6)])
    def test_conv_step_peak_memory(self, kind, bound):
        """Traced peak of running conv3 on 256 samples, in units of its float64
        [J, P] matrix: the float32 lowering plus its float64 copy would exceed
        the float bound, and the quantized path, which lowers sample blocks of
        about 2 MB, would exceed its bound by lowering the whole matrix."""
        graph = prepare_for_quantization(build_small_cnn())
        layer = graph.layer("conv3")
        part = make_partition(layer.out_channels, layer.weights_per_channel,
                              GranularityConfig("method1", 1, 27))
        scales = ScaleSet(part, np.full((12, 4), 0.02), 0.05)
        conv_op = float_conv if kind == "float" else quantized_conv({"conv3": scales})
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
def layer_and_activation(draw, samples=st.integers(1, 3)):
    """A conv (kernel 1 or 3, stride 1 or 2, padding 0 or 1) or a linear layer,
    with a float32 activation that may hold signed zeros, infinities and NaN."""
    kind = draw(st.sampled_from(["conv", "linear"]))
    n, c = draw(samples), draw(st.integers(1, 3))
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
        early = lower_layer_input(layer, quantize_values(x, scale, bits))
        late = quantize_values(lower_layer_input(layer, x), scale, bits)
    assert early.dtype == late.dtype == np.float64
    assert np.array_equal(early, late, equal_nan=True)
    assert np.array_equal(np.signbit(early), np.signbit(late))


@pytest.mark.parametrize("block_eights", [1, 3, None])
@settings(max_examples=60, deadline=None, database=None)
@given(case=layer_and_activation(samples=st.integers(1, 30)),
       out_channels=st.integers(1, 4), rows=st.integers(1, 3), cols=st.integers(1, 10),
       input_scale=st.floats(min_value=1e-3, max_value=1e3),
       bits=st.tuples(st.integers(2, 8), st.integers(2, 8)),
       activation=st.sampled_from(["identity", "relu", "leaky_relu"]),
       with_bias=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_blocked_quantized_conv_matches_whole_matrix(block_eights, case, out_channels, rows,
                                                     cols, input_scale, bits, activation,
                                                     with_bias, seed):
    """quantized_conv runs the activation in sample blocks (8 samples each, 24,
    or all at once), which leaves a short last block for most batch sizes; its
    output equals quantized_layer's conv of the whole lowered matrix bit
    for bit, signed zeros included. A NaN's sign bit is not compared: BLAS
    picks which NaN operand to propagate by kernel (a one-column block runs a
    matrix-vector kernel), as it already does between batch sizes."""
    layer, x = case
    rng = np.random.default_rng(seed)
    shape = ((out_channels, layer.in_channels, layer.kernel, layer.kernel)
             if layer.kind == "conv" else (out_channels, layer.in_channels))
    layer = replace(layer, out_channels=out_channels, activation=activation, slope=0.1,
                    quantize=True, weight=rng.normal(size=shape).astype(np.float32),
                    bias=rng.normal(size=out_channels).astype(np.float32) if with_bias
                    else None)
    part = make_partition(out_channels, layer.weights_per_channel,
                          GranularityConfig("method1", rows, cols))
    scales = ScaleSet(part, rng.uniform(0.01, 1.0, (part.v_groups, part.h_groups)),
                      input_scale, *bits)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = quantized_layer(layer.weight_matrix(), scales, layer.bias, activation, 0.1,
                                lower=lambda cols: cols)(lower_layer_input(layer, x))
        sample_bytes = lower_layer_input(layer, x[:1]).nbytes
        block_bytes = (1 << 40) if block_eights is None else 8 * block_eights * sample_bytes
        with mock.patch.object(tensor, "_FORWARD_BLOCK_BYTES", block_bytes):
            got = quantized_conv({"l": scales})(layer, x)
    assert got.dtype == whole.dtype == np.float32
    assert np.array_equal(got, whole, equal_nan=True)
    numbers = ~np.isnan(whole)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(whole[numbers]))


@pytest.mark.parametrize("samples", [40, 37])
@pytest.mark.parametrize("size,stride", [(7, 1), (14, 2), (8, 1), (16, 2)])
def test_blocked_float_conv_matches_whole_layer_dgemm(size, stride, samples):
    """float_conv in blocks of 16 samples (two full blocks and a short last
    one) against conv_reference on the whole lowered matrix, for 7x7 and 8x8
    outputs at strides 1 and 2. The whole-layer dgemm runs at 2.1-3.0 M
    multiply-adds and the blocks at 0.28-1.2 M, on both sides of the 10^6
    below which OpenBLAS switches to its small-matrix kernel. Where P is a
    multiple of 8 the float64 accumulators are equal bit for bit, and so are
    the float32 outputs; where it is not (37 samples of 49 columns), all
    columns but the last P mod 8 are, and those outputs are within one ulp."""
    rng = np.random.default_rng(size + samples)
    layer = Layer(id="l", kind="conv", out_channels=16, in_channels=8, kernel=3,
                  stride=stride, padding=1, activation="relu",
                  weight=rng.normal(size=(16, 8, 3, 3)).astype(np.float32),
                  bias=rng.normal(size=16).astype(np.float32))
    x = rng.normal(size=(samples, 8, size, size)).astype(np.float32)
    weights = layer.weight_matrix()
    cols = lower_layer_input(layer, x)
    whole = conv_reference(weights, cols, layer.activation, layer.bias)
    blocks = []

    def recording(weights, cols, *args):
        blocks.append(weights.astype(np.float64) @ cols)  # conv_reference's dgemm
        return conv_reference(weights, cols, *args)
    with mock.patch.object(tensor, "_FORWARD_BLOCK_BYTES", 16 * cols.nbytes // samples), \
            mock.patch.object(model, "conv_reference", recording):
        got = float_conv(layer, x)
    assert [b.shape[1] for b in blocks] == [c * cols.shape[1] // samples
                                            for c in (16, 16, samples - 32)]
    acc, whole_acc = np.concatenate(blocks, axis=1), weights.astype(np.float64) @ cols
    aligned = cols.shape[1] - cols.shape[1] % 8
    assert (aligned < cols.shape[1]) == (samples == 37 and size // stride == 7)
    assert acc[:, :aligned].tobytes() == whole_acc[:, :aligned].tobytes()
    assert got.dtype == np.float32 and got[:, :aligned].tobytes() == whole[:, :aligned].tobytes()
    np.testing.assert_array_max_ulp(got[:, aligned:], whole[:, aligned:], maxulp=1)


@pytest.mark.parametrize("kind", ["float", "quantized"])
def test_conv_peak_memory_does_not_grow_with_the_batch(kind):
    """A 3x3 conv of 768 samples, whose whole lowered matrix would take 56.6 MB,
    peaks under tracemalloc below its float32 output plus four sample blocks
    of about 2 MB each."""
    rng = np.random.default_rng(0)
    layer = Layer(id="l", kind="conv", out_channels=16, in_channels=16, kernel=3,
                  padding=1, quantize=True,
                  weight=rng.normal(size=(16, 16, 3, 3)).astype(np.float32))
    x = rng.normal(size=(768, 16, 8, 8)).astype(np.float32)
    assert layer.weights_per_channel * x.shape[0] * 64 * 8 >= 50 * 2 ** 20
    part = make_partition(16, 144, GranularityConfig("method1", 1, 36))
    scales = ScaleSet(part, np.full((16, 4), 0.05), 0.05)
    conv_op = float_conv if kind == "float" else quantized_conv({"l": scales})
    tracemalloc.start()
    try:
        out = conv_op(layer, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 4 * tensor._FORWARD_BLOCK_BYTES


def test_quantized_conv_of_an_empty_batch_is_empty():
    layer = Layer(id="l", kind="conv", out_channels=2, in_channels=3, kernel=3, padding=1,
                  weight=np.ones((2, 3, 3, 3), np.float32))
    scales = ScaleSet(make_partition(2, 27, GranularityConfig("method1", 1, 27)),
                      np.ones((2, 1)), 0.1)
    out = quantized_conv({"l": scales})(layer, np.zeros((0, 3, 4, 4), np.float32))
    assert out.shape == (2, 0) and out.dtype == np.float32


def test_an_empty_batch_runs_through_a_linear_layer():
    """A linear layer lowers an empty batch to [features, 0] in the float walk
    and in the quantized one, like a conv layer does."""
    graph = prepare_for_quantization(build_small_cnn())
    outs = forward_float(graph, np.zeros((0, 3, 8, 8), np.float32))
    assert outs["fc"].shape == (0, 10) and outs["output"].shape == (0, 10)
    fc = replace(graph.layer("fc"), quantize=True)
    part = make_partition(10, fc.in_channels, GranularityConfig("method1", 1, fc.in_channels))
    scales = ScaleSet(part, np.ones((10, 1)), 0.1)
    out = quantized_conv({"fc": scales})(fc, np.zeros((0, 16, 4, 4), np.float32))
    assert out.shape == (10, 0) and out.dtype == np.float32


def assert_plan_gathers_lowering(layer, x):
    """take(values, index) is the lowered matrix bit for bit, signed zeros and
    NaN payloads included, and every value is read by the index."""
    plan = plan_layer_input(layer, x)
    lowered = lower_layer_input(layer, x)
    got = np.take(plan.values, plan.index)
    assert plan.values.dtype == np.float64 and plan.index.dtype == np.intp
    assert plan.shape == lowered.shape
    assert np.array_equal(got, lowered, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(lowered))
    assert np.array_equal(np.unique(plan.index), np.arange(plan.values.size))


@settings(max_examples=150, deadline=None, database=None)
@given(case=layer_and_activation(), data=st.data())
def test_plan_gathers_the_lowered_input(case, data):
    layer, x = case
    x = x.copy()
    x[data.draw(hnp.arrays(np.bool_, x.shape))] = -0.0
    assert_plan_gathers_lowering(layer, x)


@pytest.mark.parametrize("geometry", [*itertools.product([1, 3], [1, 2], [0, 1]), "linear"],
                         ids=str)
@pytest.mark.parametrize("samples", [1, 2])
def test_plan_of_every_geometry(geometry, samples):
    """Each conv geometry of layer_and_activation, and a linear layer, on a
    batch that holds -0.0 and +0.0 next to other values."""
    if geometry == "linear":
        layer = Layer(id="l", kind="linear", out_channels=1, in_channels=2 * 5 * 5)
    else:
        kernel, stride, padding = geometry
        layer = Layer(id="l", kind="conv", out_channels=1, in_channels=2, kernel=kernel,
                      stride=stride, padding=padding)
    x = np.random.default_rng(samples).normal(size=(samples, 2, 5, 5)).astype(np.float32)
    x[:, 0, ::2] = -0.0
    x[:, 1, 1::2] = 0.0
    assert_plan_gathers_lowering(layer, x)


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
        shapes = propagate_shapes(graph)
        assert shapes["conv1"] == (1, 8, 8, 8)
        assert shapes["conv5"] == (1, 16, 4, 4)
        assert shapes["fc"] == (1, 10)
        assert shapes["output"] == (1, 10)

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
