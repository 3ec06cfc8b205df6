"""Acceptance criteria, one test each, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import write_config
from reference_search import dense_forward, dense_plan, forward_float
from subquant.analysis import network_overhead_report
from subquant.calib import (
    CalibConfig,
    calibrate_network,
    distance,
    scale_space,
    search_weight_scales,
)
from subquant.cli import main
from subquant.fixtures import (
    build_resnet20_style,
    build_toy_segment_net,
    random_inputs,
    resnet18_shape_graph,
)
from subquant.model import prepare_for_quantization
from subquant.quant import (
    GranularityConfig,
    ScaleSet,
    init_scale,
    make_partition,
    quantize_values,
)
from subquant.reorder import (
    ReorderConfig,
    apply_input_permutation,
    apply_output_permutation,
    commit_segment_reordering,
    ea_search,
    make_segment_context,
    score_block,
)
from subquant.tensor import conv_reference


@contextmanager
def criterion(number, title):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS  {title}  ({time.time() - start:.1f}s)")


def test_01_mapping_function_contract():
    with criterion(1, "mapping function range and reconstruction bound, 1e6 triples"):
        rng = np.random.default_rng(0)
        total = 0
        start = time.time()
        for bits in range(2, 17):
            n = 1_000_000 // 15 + 1
            total += n
            scales = rng.uniform(1e-4, 10.0, size=n)
            x = rng.normal(scale=rng.uniform(0.01, 50.0, size=n)) * scales
            q = quantize_values(x, scales, bits)
            manual = np.clip(np.copysign(np.floor(np.abs(x / scales) + 0.5), x),
                             -(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
            np.testing.assert_array_equal(q, manual)
            assert q.min() >= -(2 ** (bits - 1)) and q.max() <= 2 ** (bits - 1) - 1
            in_range = np.abs(x) <= (2 ** (bits - 1) - 1) * scales
            err = np.abs(scales * q - x)
            assert np.all(err[in_range] <= scales[in_range] / 2 + 1e-12)
        assert total >= 1_000_000
        assert time.time() - start < 5.0


def test_02_toy_matrix_group_scales():
    with criterion(2, "toy 2x2 matrix: per-row zero error, single scale never zero"):
        start = time.time()
        w = np.array([[0.1, -0.8], [0.5, -1.5]], dtype=np.float32)
        bits = 4
        # per-row scales: some exact divisor of every row entry exists among
        # the candidates |w|/m, giving literally zero reconstruction error
        for row in w:
            zero_found = False
            for base in np.abs(row[row != 0]):
                for m in range(1, 2 ** (bits - 1) + 1):
                    cand = float(base) / m
                    recon = cand * quantize_values(row, cand, bits)
                    if np.array_equal(recon, row.astype(np.float64)):
                        zero_found = True
            assert zero_found
        # one shared scale: strictly positive error across a dense grid
        init = init_scale(w, bits)
        grid = np.linspace(0.5 * init, 1.5 * init, 10_000)
        errors = []
        for cand in grid:
            recon = cand * quantize_values(w, cand, bits)
            errors.append(np.abs(recon - w).max())
        assert min(errors) > 0
        assert time.time() - start < 1.0


def test_03_iterative_search_vs_exhaustive_oracle():
    with criterion(3, "greedy scale search near exhaustive joint optimum, 20 layers"):
        start = time.time()
        rng = np.random.default_rng(42)
        cfg = CalibConfig(grid_size=5, iterations=4)
        gran = GranularityConfig("method1", 2, 2)
        for trial in range(20):
            w = rng.normal(size=(4, 4)).astype(np.float32)
            x = rng.normal(size=(4, 8)).astype(np.float32)
            dx = init_scale(x, cfg.act_bits)
            part = make_partition(4, 4, gran)
            target = conv_reference(w, x)
            scales, trace, _ = search_weight_scales(w, dense_plan(x), part, dx, target, cfg)
            greedy = trace[-1]
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
            # single-move local optimality on the grids at the final scales
            for v, (r0, r1) in enumerate(part.row_ranges):
                for h in range(part.h_groups):
                    for cand in scale_space(cfg.alpha, cfg.beta, scales[v, h],
                                            cfg.grid_size):
                        g2 = scales.copy()
                        g2[v, h] = cand
                        out = dense_forward(
                            w, x, ScaleSet(part, g2, dx, cfg.weight_bits, cfg.act_bits))
                        assert distance(out, target) >= greedy - 1e-12
            # exhaustive joint optimum over the initial candidate grids
            grids = [scale_space(cfg.alpha, cfg.beta,
                                 init_scale(w[r0:r1, c0:c1], cfg.weight_bits),
                                 cfg.grid_size)
                     for r0, r1 in part.row_ranges for c0, c1 in part.col_ranges]
            oracle = np.inf
            for combo in itertools.product(*grids):
                grid = np.array(combo).reshape(part.v_groups, part.h_groups)
                out = dense_forward(
                    w, x, ScaleSet(part, grid, dx, cfg.weight_bits, cfg.act_bits))
                oracle = min(oracle, distance(out, target))
            assert greedy <= 1.25 * oracle
        assert time.time() - start < 30.0


def test_04_special_case_equivalences():
    with criterion(4, "layerwise and channelwise special cases match references"):
        rng = np.random.default_rng(1)
        for trial in range(50):
            oc = int(rng.integers(2, 10))
            j = int(rng.integers(2, 30))
            p = int(rng.integers(1, 16))
            w = rng.normal(size=(oc, j)).astype(np.float32)
            x = rng.normal(size=(j, p)).astype(np.float32)
            b = rng.normal(size=oc).astype(np.float32)
            dx = init_scale(x, 8)
            # single group reproduces the layerwise form exactly
            part = make_partition(oc, j, GranularityConfig("method1", oc, j))
            dw = init_scale(w, 4)
            got = dense_forward(w, x, ScaleSet(part, np.array([[dw]]), dx), bias=b)
            qw = quantize_values(w, dw, 4)
            qx = quantize_values(x, dx, 8)
            want = ((dw * dx) * (qw @ qx) + b.astype(np.float64)[:, None]).astype(np.float32)
            np.testing.assert_array_equal(got, want)
            # one-row groups match an independently coded per-channel pass
            part = make_partition(oc, j, GranularityConfig("method1", 1, j))
            row_scales = np.array([[init_scale(w[c], 4)] for c in range(oc)])
            got = dense_forward(w, x, ScaleSet(part, row_scales, dx), bias=b)
            want = np.empty((oc, p))
            for c in range(oc):
                s = row_scales[c, 0]
                qw_c = np.clip(np.copysign(np.floor(np.abs(w[c] / s) + 0.5), w[c]), -8, 7)
                want[c] = s * dx * (qw_c @ qx) + b[c]
            np.testing.assert_allclose(got, want.astype(np.float32),
                                       rtol=1e-6, atol=1e-6)


def test_05_granularity_monotonicity():
    with criterion(5, "mean layer distance strictly decreases for cols J, J/2, J/4"):
        start = time.time()
        from subquant.fixtures import build_small_cnn
        graph = prepare_for_quantization(build_small_cnn())
        samples = random_inputs(graph, 64, seed=0)
        cfg = CalibConfig(samples=64)
        means = []
        for h in (1, 2, 4):
            gran = GranularityConfig("method2", 1, h_groups=h)
            result = calibrate_network(graph, samples, gran, cfg)
            means.append(result.mean_quantized_distance())
        assert means[0] > means[1] > means[2]
        assert time.time() - start < 300.0


def test_06_joint_reordering_preserves_float_function():
    with criterion(6, "100 random joint segment reorderings keep float outputs"):
        rng = np.random.default_rng(2)
        base_graph = prepare_for_quantization(build_resnet20_style())
        x = random_inputs(base_graph, 8, seed=5)
        baseline = forward_float(base_graph, x)["output"]
        scale = np.abs(baseline).max()
        for trial in range(100):
            graph = prepare_for_quantization(build_resnet20_style())
            segment = graph.segments[int(rng.integers(len(graph.segments)))]
            channels = graph.layer(segment.layer_ids[0]).out_channels
            commit_segment_reordering(graph, segment, [rng.permutation(channels)])
            out = forward_float(graph, x)["output"]
            assert np.abs(out - baseline).max() <= 1e-5 * scale


def test_07_ea_never_loses_and_small_instance_top_decile():
    with criterion(7, "EA >= identity, toy EA in enumerated top decile"):
        start = time.time()
        # population 40 over 5 generations on a fixture residual block
        graph = prepare_for_quantization(build_resnet20_style())
        x = random_inputs(graph, 16, seed=0)
        refs = forward_float(graph, x)
        cfg = CalibConfig(grid_size=20, iterations=1, samples=16)
        ctx = make_segment_context(graph, graph.segments[8], refs,
                                   GranularityConfig("method1", 4, 36), cfg)
        for seed in (0, 7):
            result = ea_search(ctx, ReorderConfig(population=40, iterations=5, seed=seed))
            assert result.best_score >= result.identity_score

        # 4-channel 2-layer toy: full enumeration of output x input reorderings
        toy = build_toy_segment_net()
        xt = random_inputs(toy, 8, seed=1)
        refs_t = forward_float(toy, xt)
        refs_t["input"] = xt
        cfg_t = CalibConfig(grid_size=20, iterations=1, samples=8)
        ctx_t = make_segment_context(toy, toy.segments[0], refs_t,
                                     GranularityConfig("method1", 2, 18), cfg_t)
        perms4 = [np.array(p) for p in itertools.permutations(range(4))]
        scores = []
        for p_out in perms4:
            la = apply_output_permutation(ctx_t.layers[0], p_out)
            for p_in in perms4:
                lb = apply_input_permutation(ctx_t.layers[1], p_in)
                scores.append(score_block(ctx_t, [la, lb]))
        assert len(scores) == 576
        p90 = np.quantile(scores, 0.90)
        for seed in range(5):
            res = ea_search(ctx_t, ReorderConfig(population=12, iterations=4, seed=seed))
            assert res.best_score >= res.identity_score
            assert res.best_score >= p90
        assert time.time() - start < 600.0


def test_08_overhead_table_and_instrumentation(term_sizes):
    with criterion(8, "ResNet-18 overhead table within 0.10pp; counters exact"):
        start = time.time()
        graph = resnet18_shape_graph()
        expected = {576: 0.20, 288: 0.37, 144: 0.73, 72: 1.42, 36: 2.79}
        for cols, ref in expected.items():
            rep = network_overhead_report(graph, GranularityConfig("method1", 1, cols))
            assert 100 * rep.total_compute_overhead == pytest.approx(ref, abs=0.10)
        # the terms each forward yields add up to #H * OC * P rescale MACs on
        # every fixture layer
        from subquant.fixtures import build_small_cnn
        from subquant.model import lower_layer_input
        net = prepare_for_quantization(build_small_cnn())
        x = random_inputs(net, 2, seed=7)
        gran = GranularityConfig("method1", 2, 36)
        current = {"input": x}
        from subquant.model import raise_layer_output, run_simple_layer
        from subquant.tensor import conv_reference as conv_ref
        for layer in net.layers:
            if layer.kind == "input":
                continue
            if layer.kind in ("conv", "linear"):
                x_in = current[layer.predecessors[0]]
                cols_mat = lower_layer_input(layer, x_in)
                part = make_partition(layer.out_channels, layer.weights_per_channel, gran)
                scales = ScaleSet(part, np.full((part.v_groups, part.h_groups), 0.05),
                                  init_scale(cols_mat, 8))
                term_sizes.clear()
                dense_forward(layer.weight_matrix(), cols_mat, scales)
                assert sum(term_sizes) == \
                    part.h_groups * layer.out_channels * cols_mat.shape[1]
                out = conv_ref(layer.weight_matrix(), cols_mat, layer.activation,
                               layer.bias, layer.slope)
                current[layer.id] = raise_layer_output(layer, out, x_in.shape)
            else:
                current[layer.id] = run_simple_layer(layer, current)
        assert time.time() - start < 10.0


def test_09_memory_overhead():
    with criterion(9, "scale counts and inverse-area memory overhead"):
        from subquant.analysis import memory_overhead
        rng = np.random.default_rng(3)
        for _ in range(200):
            oc = int(rng.integers(1, 70))
            j = int(rng.integers(1, 700))
            rows = int(rng.integers(1, 20))
            cols = int(rng.integers(1, 650))
            part = make_partition(oc, j, GranularityConfig("method1", rows, cols))
            m = memory_overhead(part)
            v = -(-oc // min(rows, oc))
            h = -(-j // min(cols, j))
            assert m["scales"] == v * h == part.v_groups * part.h_groups
            assert m["relative"] == pytest.approx(v * h / (oc * j))
            if oc % rows == 0 and j % cols == 0:
                assert m["relative"] == pytest.approx(1 / (rows * cols))
            # ragged edges only ever add groups, never remove
            assert m["relative"] >= 1 / (rows * cols) - 1e-12


def test_10_full_run_determinism(fixture_dir, tmp_path):
    with criterion(10, "two quantize + reorder runs produce byte-identical reports"):
        def run_all(tag):
            out = tmp_path / tag
            config = write_config(
                tmp_path / f"{tag}.json",
                model=str(fixture_dir / "small_cnn"),
                calibration=str(fixture_dir / "small_cnn_calib.ptqc"),
                granularity={"mode": "method1", "rows_per_group": 4,
                             "cols_per_group": 27},
                calib={"grid_size": 12, "iterations": 1, "samples": 8},
                reorder={"population": 4, "iterations": 1},
                seed=7,
                out=str(out))
            assert main(["quantize", "--config", str(tmp_path / f"{tag}.json"),
                         "--out", str(out / "q")]) == 0
            assert main(["reorder", "--config", str(tmp_path / f"{tag}.json"),
                         "--out", str(out / "r")]) == 0
            return out
        a = run_all("a")
        b = run_all("b")
        files = ["q/quantize_summary.json", "q/layer_distances.csv",
                 "q/quantized/manifest.json", "q/quantized/tensors.bin",
                 "r/reorder_summary.json", "r/segment_scores.csv",
                 "r/reordered/manifest.json", "r/reordered/tensors.bin"]
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
