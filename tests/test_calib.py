"""Scale search behavior against enumerative and exhaustive oracles."""

import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

from reference_search import dense_forward, dense_plan, reference_distance
from subquant import calib, model
from subquant.calib import (
    _SUM_LEAF,
    _PairwiseSum,
    CalibConfig,
    StreamingDistance,
    calibrate_layer,
    calibrate_network,
    distance,
    plan_layer_input,
    scale_space,
    search_input_scale,
    search_weight_scales,
    subsample,
)
from subquant.fixtures import build_resnet20_style, build_small_cnn, random_inputs
from subquant.model import Layer, ModelGraph, prepare_for_quantization
from subquant.quant import (
    GranularityConfig,
    ScaleSet,
    init_scale,
    make_partition,
    quantize_values,
)
from subquant.tensor import conv_reference


class TestScaleSpace:
    def test_three_points(self):
        np.testing.assert_allclose(scale_space(0.5, 1.5, 1.0, 3), [0.5, 1.0, 1.5])

    def test_hundred_points(self):
        grid = scale_space(0.5, 1.5, 0.2, 100)
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(0.3)
        np.testing.assert_allclose(np.diff(grid), 0.2 / 99)

    def test_center_always_inside_span(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.uniform(1e-3, 10)
            grid = scale_space(0.5, 1.5, c, 7)
            assert grid[0] <= c <= grid[-1]

    def test_drops_candidates_that_underflow(self):
        """A tiny alpha times a small center rounds to 0, which is no scale."""
        grid = scale_space(5e-324, 1.5, 0.03, 5)
        assert len(grid) == 4 and np.all(grid > 0)
        assert grid[-1] == 1.5 * 0.03

    def test_rejects_nonpositive_center(self):
        with pytest.raises(ValueError):
            scale_space(0.5, 1.5, 0.0, 5)


class TestDistance:
    def test_identity_is_zero(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        assert distance(x, x, "euclidean") == 0.0
        assert distance(x, x, "cosine") == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_unit_vectors(self):
        assert distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(np.sqrt(2))

    def test_cosine_scale_invariant(self):
        x = np.array([1.0, 2.0, -3.0])
        assert distance(x, 2 * x, "cosine") == pytest.approx(0.0, abs=1e-12)

    def test_cosine_zero_norms(self):
        z = np.zeros(3)
        assert distance(z, z, "cosine") == 0.0
        assert distance(z, np.ones(3), "cosine") == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distance(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("case", ["float32", "float64", "mixed", "strided", "transposed",
                                      "inf", "inf-inf", "nan", "zeros"])
    def test_euclidean_equals_the_cast_copies_formula(self, case):
        """One float64 difference squared in place sums the same values in the
        same pairwise order as casting both inputs first. Summing in another
        order changes the last bit for some draws only, hence ten of them."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(6, 12, 8, 8)).astype(np.float32)
            b = (a + rng.normal(0.0, 0.1, a.shape)).astype(np.float32)
            if case == "float64":
                a, b = a.astype(np.float64) * 1.1, b.astype(np.float64)
            elif case == "mixed":
                b = b.astype(np.float64) + 1e-9
            elif case == "strided":
                a, b = a[:, ::2, :, 1:], b[:, 1::2, :, :-1]
            elif case == "transposed":
                a, b = a.transpose(1, 0, 3, 2), b.astype(np.float64).transpose(1, 0, 3, 2)
            elif case == "inf":
                a[0, 0, 0, :2], b[1, 1, 1, 1] = (np.inf, -np.inf), np.inf
            elif case == "inf-inf":
                a[0, 0, 0, 0] = b[0, 0, 0, 0] = -np.inf
            elif case == "nan":
                a[2, 3, 4, 5] = np.nan
            elif case == "zeros":
                a, b = np.zeros_like(a), -np.zeros_like(b)
            with np.errstate(invalid="ignore"):
                got, expect = distance(a, b), reference_distance(a, b)
            assert got == expect or (np.isnan(got) and np.isnan(expect))
            assert np.isinf(got) == (case == "inf")
            assert np.isnan(got) == (case in ("inf-inf", "nan"))
            assert (got == 0.0) == (case == "zeros")


def summed_in_runs(terms, run):
    """_PairwiseSum of `terms` fed in consecutive runs of `run` terms (None: one run)."""
    acc = _PairwiseSum(len(terms))
    step = run or max(len(terms), 1)
    for i in range(0, len(terms), step):
        acc.add(terms[i:i + step])
    return acc.total()


def layer_outputs(samples, seed=0, zeros=""):
    """A quantized and a float [N, 12, 8, 8] output as a walk yields them:
    transposed views of [OC, P] float32 matrices. `zeros` names the ones
    that are all zero."""
    rng = np.random.default_rng(seed)
    float_out = rng.normal(size=(12, samples, 8, 8)).astype(np.float32)
    quant_out = (float_out + rng.normal(0.0, 0.05, float_out.shape)).astype(np.float32)
    for name, out in (("quant", quant_out), ("float", float_out)):
        if name in zeros:
            out[...] = 0.0
    return quant_out.transpose(1, 0, 2, 3), float_out.transpose(1, 0, 2, 3)


class TestStreamingDistance:
    @pytest.mark.parametrize("run", [1, 7, 8, 1000, _SUM_LEAF, None])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 127, 128, 129, _SUM_LEAF - 1, _SUM_LEAF,
                                   _SUM_LEAF + 1, 3 * _SUM_LEAF + 5, 2048 * 768])
    def test_pairwise_sum_is_np_sum(self, n, run):
        """Fed in runs of any length, the sum is np.sum of the whole array bit
        for bit. The terms span 20 orders of magnitude, so that another
        order of the additions would change the last bits."""
        rng = np.random.default_rng(n)
        terms = rng.normal(size=n) * np.exp(rng.normal(0.0, 8.0, n))
        got = summed_in_runs(terms, run)
        assert np.float64(got).tobytes() == np.sum(terms).tobytes()

    def test_pairwise_sum_needs_exactly_n_terms(self):
        acc = _PairwiseSum(3 * _SUM_LEAF)
        acc.add(np.ones(_SUM_LEAF))
        with pytest.raises(ValueError, match="fewer than"):
            acc.total()
        with pytest.raises(ValueError, match="more than"):
            acc.add(np.ones(2 * _SUM_LEAF + 1))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("samples,chunk", [(40, 8), (40, 40), (96, 8), (1096, 8),
                                               (1096, 512), (1096, 1096)])
    def test_streamed_distance_is_one_shot(self, metric, samples, chunk):
        """A layer's outputs added one chunk of samples at a time give
        distance() of the whole outputs bit for bit, below one leaf (40
        samples), just above it (96) and across many leaves (1096); a
        euclidean distance is also the old formula's, np.sum of one float64
        copy of the squared differences."""
        quant_out, float_out = layer_outputs(samples)
        acc = StreamingDistance(quant_out.size, metric)
        for i in range(0, samples, chunk):
            acc.add(quant_out[i:i + chunk], float_out[i:i + chunk])
        assert acc.value() == distance(quant_out, float_out, metric)
        if metric == "euclidean":
            assert acc.value() == reference_distance(quant_out, float_out)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_samples_larger_than_a_piece(self, metric):
        """Samples of 80,000 elements each, more than one piece of terms,
        streamed one sample at a time or in one piece give distance() of
        the whole arrays, which is the old formula's for euclidean."""
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 2, 200, 200)).astype(np.float32)
        b = (a + rng.normal(0.0, 0.1, a.shape)).astype(np.float32)
        acc = StreamingDistance(a.size, metric)
        for i in range(3):
            acc.add(a[i:i + 1], b[i:i + 1])
        assert acc.value() == distance(a, b, metric)
        if metric == "euclidean":
            assert acc.value() == reference_distance(a, b)

    @pytest.mark.parametrize("zeros,expect", [("quant float", 0.0), ("quant", 1.0),
                                              ("float", 1.0)])
    @pytest.mark.parametrize("samples", [8, 1096])
    def test_streamed_cosine_of_zero_norms(self, zeros, expect, samples):
        """Two zero outputs are 0 apart and one zero output is 1 away, in one
        piece or streamed in chunks of 8 samples, as distance() had it."""
        quant_out, float_out = layer_outputs(samples, zeros=zeros)
        acc = StreamingDistance(quant_out.size, "cosine")
        for i in range(0, samples, 8):
            acc.add(quant_out[i:i + 8], float_out[i:i + 8])
        assert acc.value() == distance(quant_out, float_out, "cosine") == expect

    def test_cosine_is_the_blas_formula_to_rounding(self):
        """Cosine sums its dot product and norms pairwise instead of through
        BLAS, which moves the value in its last bits only."""
        quant_out, float_out = layer_outputs(1096)
        x = quant_out.reshape(-1).astype(np.float64)
        y = float_out.reshape(-1).astype(np.float64)
        blas = 1.0 - np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
        assert distance(quant_out, float_out, "cosine") == pytest.approx(blas, rel=1e-9)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_distance_leaves_float64_inputs_unchanged(self, metric):
        """The terms are squared in place over copies, never over the
        caller's arrays, even when those are float64 and C-ordered."""
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, 16, 300))
        a_bytes, b_bytes = a.tobytes(), b.tobytes()
        acc = StreamingDistance(a.size, metric)
        acc.add(a, b)
        assert acc.value() == distance(a, b, metric)
        assert a.tobytes() == a_bytes and b.tobytes() == b_bytes

    def test_streaming_rejects_bad_pieces(self):
        with pytest.raises(ValueError, match="unknown metric"):
            StreamingDistance(4, "manhattan")
        with pytest.raises(ValueError, match="shape mismatch"):
            StreamingDistance(4).add(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="unknown metric"):
            distance(np.zeros(2), np.zeros(2), "manhattan")


def lossless_layer(dw=0.25, dx=0.0625, oc=3, j=4, p=16, seed=0):
    """Weights/inputs are exact dyadic code multiples; every channel row and
    the input carry a full-range negative code, so every covering init scale
    is exact and calibration can reach literal zero error."""
    rng = np.random.default_rng(seed)
    wcodes = rng.integers(-7, 8, size=(oc, j)).astype(np.float64)
    wcodes[:, 0] = -8
    xcodes = rng.integers(-127, 128, size=(j, p)).astype(np.float64)
    xcodes[0, 0] = -128
    return (wcodes * dw).astype(np.float32), (xcodes * dx).astype(np.float32)


class TestSearchInputScale:
    def test_lossless_input_selects_exact_scale(self):
        w, x = lossless_layer()
        target = conv_reference(w, x)
        cfg = CalibConfig(grid_size=100)
        scale, d, _ = search_input_scale(w, dense_plan(x), target, cfg)
        assert scale == 0.0625
        assert d == 0.0

    def test_singleton_grid_returns_init(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(2, 3)).astype(np.float32)
        x = rng.normal(size=(3, 5)).astype(np.float32)
        target = conv_reference(w, x)
        cfg = CalibConfig(grid_size=2)
        # the smallest grid the config allows; the init candidate joins it
        scale, _, _ = search_input_scale(w, dense_plan(x), target, cfg)
        assert scale > 0

    def test_constant_input_matches_bruteforce(self):
        cfg = CalibConfig(grid_size=100)
        w = np.array([[1.0]], dtype=np.float32)
        x = np.full((1, 6), 1.27, dtype=np.float32)
        target = x.copy()
        scale, _, _ = search_input_scale(w, dense_plan(x), target, cfg)
        center = init_scale(x, cfg.act_bits)
        cands = np.unique(np.append(scale_space(cfg.alpha, cfg.beta, center, 100), center))
        errs = []
        for c in cands:
            deq = c * quantize_values(x, c, cfg.act_bits)
            errs.append(np.sqrt(np.sum((deq - x) ** 2)))
        assert scale == pytest.approx(cands[int(np.argmin(errs))])

    def test_empty_set_rejected(self):
        cfg = CalibConfig()
        with pytest.raises(ValueError):
            search_input_scale(np.ones((1, 1), np.float32),
                               dense_plan(np.ones((1, 0), np.float32)),
                               np.ones((1, 0), np.float32), cfg)

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_empty_plan_rejected(self, kind):
        """An empty batch plans to [J, 0] with no values; the search still
        rejects it as an empty calibration set."""
        layer = (Layer(id="l", kind="conv", out_channels=2, in_channels=3, kernel=3, padding=1)
                 if kind == "conv" else Layer(id="l", kind="linear", out_channels=2,
                                              in_channels=48))
        plan = plan_layer_input(layer, np.zeros((0, 3, 4, 4), np.float32))
        j = 27 if kind == "conv" else 48
        assert plan.shape == (j, 0) and plan.values.size == 0
        with pytest.raises(ValueError, match="empty calibration set"):
            search_input_scale(np.ones((2, j), np.float32), plan,
                               np.ones((2, 0), np.float32), CalibConfig())


class TestSearchWeightScales:
    def test_single_group_equals_enumerative_search(self):
        rng = np.random.default_rng(3)
        cfg = CalibConfig(grid_size=9, iterations=1)
        for trial in range(8):
            w = rng.normal(size=(3, 5)).astype(np.float32)
            x = rng.normal(size=(5, 7)).astype(np.float32)
            dx = init_scale(x, cfg.act_bits)
            part = make_partition(3, 5, GranularityConfig("layerwise"))
            target = conv_reference(w, x)
            got, _, _ = search_weight_scales(w, dense_plan(x), part, dx, target, cfg)
            # oracle: incumbent init first, then the grid, strict improvement
            init = init_scale(w, cfg.weight_bits)
            best_s, best_d = init, None
            for cand in [init] + list(scale_space(cfg.alpha, cfg.beta, init, cfg.grid_size)):
                out = dense_forward(
                    w, x, ScaleSet(part, np.array([[cand]]), dx,
                                   cfg.weight_bits, cfg.act_bits))
                d = distance(out, target, cfg.metric)
                if best_d is None or d < best_d:
                    best_s, best_d = cand, d
            assert got[0, 0] == pytest.approx(best_s)

    def test_toy_matrix_reaches_zero_per_row(self):
        # a 97-point grid holds the exact divisor 0.25 of the second row
        w = np.array([[0.1, -0.8], [0.5, -1.5]], dtype=np.float32)
        x = np.eye(2, dtype=np.float32)
        cfg = CalibConfig(grid_size=97, iterations=1)
        part = make_partition(2, 2, GranularityConfig("channelwise"))
        target = conv_reference(w, x)
        scales, trace, _ = search_weight_scales(w, dense_plan(x), part, 1.0, target, cfg)
        assert trace[-1] == 0.0
        assert scales[0, 0] == pytest.approx(np.float32(0.8) / 8)
        assert scales[1, 0] == 0.25

    def test_toy_matrix_single_scale_cannot_reach_zero(self):
        w = np.array([[0.1, -0.8], [0.5, -1.5]], dtype=np.float32)
        init = init_scale(w, 4)
        for cand in np.linspace(0.5 * init, 1.5 * init, 2000):
            recon = cand * quantize_values(w, cand, 4)
            assert np.abs(recon - w).max() > 0

    def test_sweep_trace_never_increases(self):
        rng = np.random.default_rng(4)
        cfg = CalibConfig(grid_size=7, iterations=3)
        for trial in range(5):
            w = rng.normal(size=(6, 8)).astype(np.float32)
            x = rng.normal(size=(8, 10)).astype(np.float32)
            part = make_partition(6, 8, GranularityConfig("method1", 3, 4))
            target = conv_reference(w, x)
            _, trace, _ = search_weight_scales(w, dense_plan(x), part, init_scale(x, 8),
                                               target, cfg)
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_all_zero_group_keeps_sentinel(self):
        w = np.zeros((2, 4), dtype=np.float32)
        w[1] = [0.5, -0.25, 0.75, 1.0]
        x = np.random.default_rng(5).normal(size=(4, 6)).astype(np.float32)
        part = make_partition(2, 4, GranularityConfig("channelwise"))
        cfg = CalibConfig(grid_size=11, iterations=2)
        target = conv_reference(w, x)
        scales, _, _ = search_weight_scales(w, dense_plan(x), part, init_scale(x, 8), target, cfg)
        assert scales[0, 0] == 1.0
        assert scales[1, 0] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(4, 6)).astype(np.float32)
        x = rng.normal(size=(6, 9)).astype(np.float32)
        part = make_partition(4, 6, GranularityConfig("method1", 2, 3))
        cfg = CalibConfig(grid_size=13)
        target = conv_reference(w, x)
        a, _, _ = search_weight_scales(w, dense_plan(x), part, init_scale(x, 8), target, cfg)
        b, _, _ = search_weight_scales(w, dense_plan(x), part, init_scale(x, 8), target, cfg)
        np.testing.assert_array_equal(a, b)

    def test_greedy_vs_exhaustive_joint_oracle(self):
        # small instance of the acceptance check: greedy close to the joint
        # optimum over the initial grids and locally optimal on its own grid
        rng = np.random.default_rng(12)
        cfg = CalibConfig(grid_size=5, iterations=4)
        gran = GranularityConfig("method1", 2, 2)
        for trial in range(5):
            w = rng.normal(size=(4, 4)).astype(np.float32)
            x = rng.normal(size=(4, 8)).astype(np.float32)
            dx = init_scale(x, cfg.act_bits)
            part = make_partition(4, 4, gran)
            target = conv_reference(w, x)
            scales, trace, _ = search_weight_scales(w, dense_plan(x), part, dx, target, cfg)
            greedy_d = trace[-1]

            grids = []
            for r0, r1 in part.row_ranges:
                for c0, c1 in part.col_ranges:
                    init = init_scale(w[r0:r1, c0:c1], cfg.weight_bits)
                    grids.append(scale_space(cfg.alpha, cfg.beta, init, cfg.grid_size))
            oracle_d = np.inf
            for combo in itertools.product(*grids):
                grid = np.array(combo).reshape(part.v_groups, part.h_groups)
                out = dense_forward(
                    w, x, ScaleSet(part, grid, dx, cfg.weight_bits, cfg.act_bits))
                oracle_d = min(oracle_d, distance(out, target, cfg.metric))
            assert greedy_d <= 1.25 * oracle_d


class TestCalibrateLayer:
    def test_lossless_layer_reaches_zero(self):
        w, x = lossless_layer()
        target = conv_reference(w, x)
        cfg = CalibConfig(grid_size=101, iterations=2)
        cal = calibrate_layer(w, dense_plan(x), target, GranularityConfig("channelwise"),
                              cfg)
        assert distance(cal.output, target) == 0.0
        np.testing.assert_array_equal(cal.output, target)

    def test_input_research_never_hurts(self):
        rng = np.random.default_rng(7)
        cfg = CalibConfig(grid_size=15)
        for trial in range(6):
            w = rng.normal(size=(5, 9)).astype(np.float32)
            x = rng.normal(size=(9, 11)).astype(np.float32)
            target = conv_reference(w, x, "relu")
            plan = dense_plan(x)
            cal = calibrate_layer(w, plan, target, GranularityConfig("method1", 2, 3), cfg,
                                  activation="relu")
            step1 = search_input_scale(w, plan, target, cfg, activation="relu")[0]
            weight_search = distance(dense_forward(w, x, replace(cal.scales, input_scale=step1),
                                                   activation="relu"), target)
            input_research = distance(cal.output, target)
            assert input_research <= weight_search + 1e-12
            assert distance(dense_forward(w, x, cal.scales, activation="relu"),
                            target) == input_research


def tiny_two_layer_graph(dw=0.25, dx=0.0625):
    rng = np.random.default_rng(8)
    wcodes = rng.integers(-7, 8, size=(3, 3, 1, 1)).astype(np.float64)
    wcodes[:, 0, 0, 0] = -8
    w1 = (wcodes * dw).astype(np.float32)
    w2 = rng.normal(size=(2, 3, 1, 1)).astype(np.float32)
    layers = [Layer(id="input", kind="input"),
              Layer(id="l1", kind="conv", predecessors=["input"], out_channels=3,
                    in_channels=3, kernel=1, quantize=True, weight=w1),
              Layer(id="l2", kind="conv", predecessors=["l1"], out_channels=2,
                    in_channels=3, kernel=1, quantize=True, weight=w2),
              Layer(id="output", kind="output", predecessors=["l2"])]
    return ModelGraph(layers, input_shape=[1, 3, 2, 2]).validate()


class TestCalibrateNetwork:
    def test_everything_excluded_matches_float(self):
        graph = build_small_cnn()
        from subquant.model import prepare_for_quantization
        graph = prepare_for_quantization(graph)
        for layer in graph.layers:
            layer.quantize = False
        x = random_inputs(graph, 4, seed=3)
        cfg = CalibConfig(samples=4)
        result = calibrate_network(graph.layers, {graph.input_id: x},
                                   GranularityConfig("channelwise"), cfg)
        assert result.scales == {}
        assert result.layer_distances[graph.output_id] == 0.0
        assert all(d == 0.0 for d in result.layer_distances.values())

    def test_lossless_first_layer_feeds_exact_inputs(self):
        graph = tiny_two_layer_graph()
        rng = np.random.default_rng(9)
        xcodes = rng.integers(-127, 128, size=(4, 3, 2, 2)).astype(np.float64)
        xcodes[0, 0, 0, 0] = -128
        x = (xcodes * 0.0625).astype(np.float32)
        cfg = CalibConfig(grid_size=101, samples=4)
        result = calibrate_network(graph.layers, {graph.input_id: x},
                                   GranularityConfig("channelwise"), cfg)
        assert result.layer_distances["l1"] == 0.0

    def test_deterministic_scale_sets(self):
        graph = build_small_cnn()
        x = random_inputs(graph, 6, seed=4)
        cfg = CalibConfig(grid_size=11, samples=6)
        from subquant.model import prepare_for_quantization
        graph = prepare_for_quantization(graph)
        r1 = calibrate_network(graph.layers, {graph.input_id: x},
                               GranularityConfig("channelwise"), cfg)
        r2 = calibrate_network(graph.layers, {graph.input_id: x},
                               GranularityConfig("channelwise"), cfg)
        assert r1.scales.keys() == r2.scales.keys()
        for key in r1.scales:
            np.testing.assert_array_equal(r1.scales[key].weight_scales,
                                          r2.scales[key].weight_scales)
            assert r1.scales[key].input_scale == r2.scales[key].input_scale
        assert r1.layer_distances[graph.output_id] == r2.layer_distances[graph.output_id]

    def test_graph_and_samples_stand_for_its_layers_and_feeds(self):
        """calibrate_network(graph, samples, ...), the form
        perfbench/roadmap_table.py calls, is the layers and feeds form."""
        graph = tiny_two_layer_graph()
        x = random_inputs(graph, 6, seed=1)
        granularity, cfg = GranularityConfig("channelwise"), CalibConfig(grid_size=5, samples=4)
        by_graph = calibrate_network(graph, x, granularity, cfg)
        by_layers = calibrate_network(graph.layers, {graph.input_id: x}, granularity, cfg)
        assert by_graph.layer_distances == by_layers.layer_distances
        assert by_graph.scales.keys() == by_layers.scales.keys() == {"l1", "l2"}
        for lid, scales in by_graph.scales.items():
            np.testing.assert_array_equal(scales.weight_scales,
                                          by_layers.scales[lid].weight_scales)
            assert scales.input_scale == by_layers.scales[lid].input_scale

    def test_float_outputs_released_as_layers_are_calibrated(self, monkeypatch):
        """When calibration reaches a conv, the float output of every layer
        before it that no layer after it reads is gone."""
        graph = prepare_for_quantization(build_resnet20_style())
        order = {layer.id: i for i, layer in enumerate(graph.layers)}
        last_read = {pred: order[layer.id] for layer in graph.layers
                     for pred in layer.predecessors}
        floats, checked = {}, []
        real_execute = model.execute

        def tracking_execute(layers, feeds, conv_op):
            if isinstance(getattr(conv_op, "__self__", None), calib.Lockstep):
                # the float walk of a Lockstep: note each output
                for layer, out in real_execute(layers, feeds, conv_op):
                    if layer.kind != "input":
                        floats[layer.id] = weakref.ref(out)
                    yield layer, out
                return

            def checking_op(layer, x):
                k = order[layer.id]
                held = [j for j, out in floats.items() if out() is not None
                        and order[j] < k and last_read.get(j, len(order)) <= k]
                assert held == [], f"float outputs held while calibrating {layer.id}"
                checked.append(layer.id)
                return conv_op(layer, x)
            yield from real_execute(layers, feeds, checking_op)

        monkeypatch.setattr(model, "execute", tracking_execute)
        monkeypatch.setattr(calib, "execute", tracking_execute)
        calibrate_network(graph.layers, {graph.input_id: random_inputs(graph, 4, seed=0)},
                          GranularityConfig("channelwise"),
                          CalibConfig(grid_size=3, iterations=1, samples=4))
        assert checked == [layer.id for layer in graph.conv_like()]

    def test_unquantized_first_conv_runs_once(self, monkeypatch):
        """resnet20_style's conv0 runs in float on the samples in both walks;
        the calibrating walk takes the float walk's output, so one
        calibrate_network runs it once. fc runs in float too, but on inputs
        that differ between the walks, so it runs in each: 22 float convs."""
        graph = prepare_for_quantization(build_resnet20_style())
        ran = []
        real = calib.float_conv

        def spy(layer, x):
            ran.append(layer.id)
            return real(layer, x)
        monkeypatch.setattr(calib, "float_conv", spy)
        calibrate_network(graph.layers, {graph.input_id: random_inputs(graph, 4, seed=0)},
                          GranularityConfig("channelwise"),
                          CalibConfig(grid_size=3, iterations=1, samples=4))
        assert ran.count("conv0") == 1 and ran.count("fc") == 2 and len(ran) == 22


def test_subsample_is_deterministic_and_ordered():
    samples = np.arange(40, dtype=np.float32).reshape(10, 4)
    a = subsample(samples, 4, seed=5)
    b = subsample(samples, 4, seed=5)
    np.testing.assert_array_equal(a, b)
    rows = [int(r[0]) // 4 for r in a]
    assert rows == sorted(rows)
    assert subsample(samples, 20, seed=5) is samples


def test_calib_config_validation():
    with pytest.raises(ValueError):
        CalibConfig(alpha=0.0)
    with pytest.raises(ValueError):
        CalibConfig(beta=0.9)
    with pytest.raises(ValueError):
        CalibConfig(grid_size=1)
    with pytest.raises(ValueError):
        CalibConfig(metric="manhattan")
