"""The batched weight search and the grouped forward against their unbatched
references: every scale, trace value and output must match bit for bit."""

import numpy as np
import pytest

from reference_search import (
    reference_quantized_forward_layer,
    reference_search_weight_scales,
)
from subquant.calib import (
    CalibConfig,
    distance,
    scale_space,
    search_input_scale,
    search_weight_scales,
)
from subquant.quant import (
    GranularityConfig,
    OpCounters,
    ScaleSet,
    make_partition,
    quantize_values,
    quantized_forward_layer,
)
from subquant.tensor import conv_reference

GRANULARITIES = [
    GranularityConfig("layerwise"),
    GranularityConfig("channelwise"),
    GranularityConfig("method1", rows_per_group=1, cols_per_group=12),
    GranularityConfig("method1", rows_per_group=4, cols_per_group=12),
    GranularityConfig("method2", rows_per_group=1, h_groups=4),
    GranularityConfig("method2", rows_per_group=4, h_groups=3),
]


def make_layer(seed, oc=10, j=40, p=96):
    """Random weights and inputs; the target is the float output plus noise."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(scale=0.2, size=(oc, j)).astype(np.float32)
    cols = rng.normal(size=(j, p)).astype(np.float32)
    bias = rng.normal(scale=0.1, size=oc).astype(np.float32)
    return weights, cols, bias


def target_of(weights, cols, bias, activation, seed=0):
    ref = conv_reference(weights, cols, activation, bias, 0.1)
    noise = np.random.default_rng(seed).normal(scale=0.01, size=ref.shape)
    return (ref + noise).astype(np.float32)


def assert_search_matches(weights, cols, partition, input_scale, target, cfg, bias=None,
                          activation="identity", slope=0.01):
    expect = reference_search_weight_scales(weights, cols, partition, input_scale, target,
                                            cfg, bias, activation, slope)
    got = search_weight_scales(weights, cols, partition, input_scale, target, cfg,
                               bias, activation, slope)
    assert np.array_equal(got[0], expect[0])
    assert got[1] == expect[1]
    return got


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("granularity", GRANULARITIES, ids=lambda g: g.describe())
def test_weight_search_matches_reference(metric, granularity):
    weights, cols, _ = make_layer(1)
    target = target_of(weights, cols, None, "identity")
    partition = make_partition(*weights.shape, granularity)
    cfg = CalibConfig(grid_size=20, iterations=2, metric=metric)
    assert_search_matches(weights, cols, partition, 0.03, target, cfg)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
@pytest.mark.parametrize("rows", [1, 4])
def test_bias_and_activation(metric, activation, rows):
    weights, cols, bias = make_layer(2)
    target = target_of(weights, cols, bias, activation, seed=1)
    partition = make_partition(*weights.shape,
                               GranularityConfig("method2", rows_per_group=rows, h_groups=4))
    cfg = CalibConfig(grid_size=15, iterations=2, metric=metric)
    assert_search_matches(weights, cols, partition, 0.03, target, cfg, bias, activation, 0.1)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_all_zero_group(metric):
    weights, cols, bias = make_layer(3)
    weights[0:4, 0:10] = 0.0
    target = target_of(weights, cols, bias, "relu")
    partition = make_partition(*weights.shape,
                               GranularityConfig("method1", rows_per_group=4,
                                                 cols_per_group=10))
    cfg = CalibConfig(grid_size=12, iterations=2, metric=metric)
    scales, _ = assert_search_matches(weights, cols, partition, 0.03, target, cfg, bias,
                                      "relu")
    assert scales[0, 0] == 1.0


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_exact_ties_go_to_earliest_candidate(metric):
    """With 200 candidates, neighbours often give identical codes and hence
    identical distances; the earliest of them must win, as in the reference."""
    weights, cols, _ = make_layer(4, oc=4, j=6, p=64)
    target = target_of(weights, cols, None, "identity")
    partition = make_partition(*weights.shape, GranularityConfig("channelwise"))
    cfg = CalibConfig(grid_size=200, iterations=2, metric=metric)
    group = weights[0:1]
    codes = [quantize_values(group, c, cfg.weight_bits).tobytes()
             for c in scale_space(cfg.alpha, cfg.beta, np.abs(group).max() / 8, 200)]
    assert any(a == b for a, b in zip(codes, codes[1:]))
    assert_search_matches(weights, cols, partition, 0.03, target, cfg)


def test_cosine_zero_target():
    """An all-zero target leaves only distances 0 and 1; no screen applies."""
    weights, cols, _ = make_layer(5)
    target = np.zeros((weights.shape[0], cols.shape[1]), dtype=np.float32)
    partition = make_partition(*weights.shape, GranularityConfig("method2", 4, h_groups=2))
    cfg = CalibConfig(grid_size=10, iterations=1, metric="cosine")
    assert_search_matches(weights, cols, partition, 0.03, target, cfg, None, "relu")


@pytest.mark.parametrize("granularity", GRANULARITIES, ids=lambda g: g.describe())
@pytest.mark.parametrize("activation", ["identity", "relu", "leaky_relu"])
def test_grouped_forward_matches_reference(granularity, activation):
    weights, cols, bias = make_layer(6)
    partition = make_partition(*weights.shape, granularity)
    rng = np.random.default_rng(7)
    grid = rng.uniform(0.01, 0.05, size=(partition.v_groups, partition.h_groups))
    scales = ScaleSet(grid, 0.03)
    got_counters, expect_counters = OpCounters(), OpCounters()
    got = quantized_forward_layer(weights, cols, partition, scales, bias, activation, 0.1,
                                  got_counters)
    expect = reference_quantized_forward_layer(weights, cols, partition, scales, bias,
                                               activation, 0.1, expect_counters)
    assert got.dtype == np.float32
    assert np.array_equal(got, expect)
    assert got_counters.rescale_macs == expect_counters.rescale_macs == \
        partition.h_groups * weights.shape[0] * cols.shape[1]


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_input_research_matches_reference(metric):
    """Step 3 makes the weight codes once; every candidate must still score
    exactly like a fresh grouped forward."""
    weights, cols, bias = make_layer(8)
    target = target_of(weights, cols, bias, "relu")
    partition = make_partition(*weights.shape, GranularityConfig("method2", 1, h_groups=4))
    cfg = CalibConfig(grid_size=25, metric=metric)
    grid, _ = search_weight_scales(weights, cols, partition, 0.03, target, cfg, bias, "relu")
    got = search_input_scale(weights, cols, target, cfg, partition=partition,
                             weight_scales=grid, center=0.03, incumbent=0.03, bias=bias,
                             activation="relu")
    candidates = np.unique(np.append(scale_space(cfg.alpha, cfg.beta, 0.03, 25), 0.03))
    best = (None, np.inf)
    for cand in candidates:
        out = reference_quantized_forward_layer(weights, cols, partition,
                                                ScaleSet(grid, float(cand)), bias, "relu")
        d = distance(out, target, metric)
        if d < best[1]:
            best = (float(cand), d)
    assert got == best


@pytest.mark.parametrize("width,ok", [(2, True), (3, False)])
def test_exact_accumulation_guard_at_bound(width, ok):
    """At 27-bit codes the worst case width * 2^26 * 2^26 is exactly 2^53 for
    two columns, which still accumulates exactly; a third column must raise,
    both in the grouped forward and in the searches that use it."""
    bits = 27
    weights = np.full((2, width), -1.0, dtype=np.float32)
    cols = np.full((width, 3), -1.0, dtype=np.float32)
    partition = make_partition(2, width, GranularityConfig("layerwise"))
    scales = ScaleSet([[1e-9]], 1e-9, weight_bits=bits, act_bits=bits)
    cfg = CalibConfig(grid_size=3, iterations=1, weight_bits=bits, act_bits=bits)
    target = np.zeros((2, 3), dtype=np.float32)

    def step3():
        return search_input_scale(weights, cols, target, cfg, partition=partition,
                                  weight_scales=scales.weight_scales, center=1e-9)

    if ok:
        out = quantized_forward_layer(weights, cols, partition, scales)
        expect = reference_quantized_forward_layer(weights, cols, partition, scales)
        assert np.array_equal(out, expect)
        assert out[0, 0] == np.float32(2.0 ** 53 * 1e-9 * 1e-9)
        assert step3()[0] is not None
        search_weight_scales(weights, cols, partition, 1e-9, target, cfg)
    else:
        for run in (lambda: quantized_forward_layer(weights, cols, partition, scales), step3,
                    lambda: search_weight_scales(weights, cols, partition, 1e-9, target,
                                                 cfg)):
            with pytest.raises(ValueError, match="exact float64 range"):
                run()
