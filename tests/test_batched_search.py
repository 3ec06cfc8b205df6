"""The batched weight search and the grouped forward against their unbatched
references: every scale, trace value and output must match bit for bit."""

from functools import partial
from unittest import mock

import numpy as np
import pytest

from reference_search import (
    dense_forward,
    dense_plan,
    reference_im2col,
    reference_quantize_values,
    reference_quantized_forward_layer,
    forward_float,
    reference_search_weight_scales,
)
from subquant import calib, quant
from subquant.calib import (
    CalibConfig,
    calibrate_layer,
    distance,
    plan_layer_input,
    scale_space,
    search_input_scale,
    search_weight_scales,
)
from subquant.fixtures import build_resnet20_style, build_small_cnn, random_inputs
from subquant.model import prepare_for_quantization, reference_target
from subquant.quant import (
    GranularityConfig,
    ScaleSet,
    make_partition,
    quantize_values,
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
    """Scales and trace equal the reference's, and the returned output is
    the reference's and the reference forward's under those scales, byte
    for byte."""
    expect = reference_search_weight_scales(weights, cols, partition, input_scale, target,
                                            cfg, bias, activation, slope)
    got = search_weight_scales(weights, dense_plan(cols), partition, input_scale, target,
                               cfg, bias, activation, slope)
    assert np.array_equal(got[0], expect[0])
    assert got[1] == expect[1]
    forward = reference_quantized_forward_layer(
        weights, cols, partition,
        ScaleSet(partition, got[0], input_scale, cfg.weight_bits, cfg.act_bits),
        bias, activation, slope)
    assert got[2].tobytes() == forward.tobytes() == expect[2].tobytes()
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
@pytest.mark.parametrize("activation", ["identity", "relu", "leaky_relu"])
@pytest.mark.parametrize("rows,h_groups,with_bias", [
    pytest.param(rows, h_groups, with_bias, id=f"{rows}" + ("-h1" if h_groups == 1 else "")
                 + ("" if with_bias else "-no-bias"))
    for rows in (1, 4) for h_groups in (4, 1) for with_bias in (True, False)])
def test_bias_and_activation(metric, activation, rows, h_groups, with_bias):
    """h_groups 1 runs the candidate path whose stack is the whole sum: no
    earlier terms, no later ones."""
    weights, cols, bias = make_layer(2)
    bias = bias if with_bias else None
    target = target_of(weights, cols, bias, activation, seed=1)
    partition = make_partition(*weights.shape, GranularityConfig(
        "method2", rows_per_group=rows, h_groups=h_groups))
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
    scales, _, _ = assert_search_matches(weights, cols, partition, 0.03, target, cfg, bias,
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


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_screen_within_the_summation_error_stays_a_contender(metric):
    """A screen and distance() each err by up to N*eps, so a candidate whose
    screen lies 2*N*eps above the screened minimum (relative for euclidean,
    absolute for cosine) may still be the closest: it must be confirmed."""
    weights, cols, bias = make_layer(6)
    out = conv_reference(weights, cols, "identity", bias, 0.1)
    screen = calib._Screen(out, target_of(weights, cols, bias, "identity"), metric)
    err, best = 2 * out.size * np.finfo(np.float64).eps, 0.25
    near = best * (1 + err) if metric == "euclidean" else best + err
    assert near > best
    assert screen.contenders(np.array([near, best, near])).all()


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_non_finite_screen_stays_a_contender(metric):
    """A NaN or infinite screen bounds nothing, so only distance() can rule
    that candidate out; a finite screen far above the minimum is dropped."""
    weights, cols, bias = make_layer(7)
    out = conv_reference(weights, cols, "identity", bias, 0.1)
    screen = calib._Screen(out, target_of(weights, cols, bias, "identity"), metric)
    scores = np.array([0.5, np.nan, np.inf, 0.75, -np.inf])
    assert screen.contenders(scores).tolist() == [True, True, True, False, True]
    assert screen.contenders(np.array([np.nan, np.nan])).all()


@pytest.mark.parametrize("granularity", GRANULARITIES, ids=lambda g: g.describe())
@pytest.mark.parametrize("activation", ["identity", "relu", "leaky_relu"])
def test_grouped_forward_matches_reference(granularity, activation, term_sizes):
    weights, cols, bias = make_layer(6)
    partition = make_partition(*weights.shape, granularity)
    rng = np.random.default_rng(7)
    grid = rng.uniform(0.01, 0.05, size=(partition.v_groups, partition.h_groups))
    scales = ScaleSet(partition, grid, 0.03)
    got = dense_forward(weights, cols, scales, bias, activation, 0.1)
    expect = reference_quantized_forward_layer(weights, cols, partition, scales, bias,
                                               activation, 0.1)
    assert got.dtype == np.float32
    assert np.array_equal(got, expect)
    assert sum(term_sizes) == partition.h_groups * weights.shape[0] * cols.shape[1]


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_input_research_matches_reference(metric):
    """Step 3 makes the weight codes once; every candidate must still score
    exactly like a fresh grouped forward."""
    weights, cols, bias = make_layer(8)
    target = target_of(weights, cols, bias, "relu")
    partition = make_partition(*weights.shape, GranularityConfig("method2", 1, h_groups=4))
    cfg = CalibConfig(grid_size=25, metric=metric)
    plan = dense_plan(cols)
    grid, _, _ = search_weight_scales(weights, plan, partition, 0.03, target, cfg, bias, "relu")
    got = search_input_scale(weights, plan, target, cfg, ScaleSet(partition, grid, 0.03),
                             bias=bias, activation="relu")
    candidates = np.unique(np.append(scale_space(cfg.alpha, cfg.beta, 0.03, 25), 0.03))
    best = (None, np.inf, None)
    for cand in candidates:
        out = reference_quantized_forward_layer(weights, cols, partition,
                                                ScaleSet(partition, grid, float(cand)),
                                                bias, "relu")
        d = distance(out, target, metric)
        if d < best[1]:
            best = (float(cand), d, out)
    assert got[:2] == best[:2]
    assert np.array_equal(got[2], best[2])


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("granularity", GRANULARITIES, ids=lambda g: g.describe())
def test_calibrated_output_is_the_final_forward(metric, granularity):
    """calibrate_layer returns the winning step-3 output instead of running a
    fourth forward; it must equal that forward and its distance bit for bit."""
    weights, cols, bias = make_layer(9)
    target = target_of(weights, cols, bias, "leaky_relu", seed=2)
    cfg = CalibConfig(grid_size=15, iterations=1, metric=metric)
    cal = calibrate_layer(weights, dense_plan(cols), target, granularity, cfg, bias,
                          "leaky_relu", 0.1)
    expect = dense_forward(weights, cols, cal.scales, bias, "leaky_relu", 0.1)
    assert np.array_equal(cal.output, expect)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_weight_search_measures_only_the_entry_and_the_confirmed_candidates(metric):
    """distance() runs once on the entry output and once per candidate the
    screen keeps; each sweep's trace value is the running distance, not one
    more call."""
    weights, cols, bias = make_layer(4)
    target = target_of(weights, cols, bias, "relu")
    partition = make_partition(*weights.shape, GranularityConfig("method1", 4, 12))
    cfg = CalibConfig(grid_size=15, iterations=2, metric=metric)
    kept = []
    contenders = calib._Screen.contenders

    def counted(screen, scores):
        mask = contenders(screen, scores)
        kept.append(int(np.count_nonzero(mask)))
        return mask

    with mock.patch.object(calib, "distance", wraps=calib.distance) as measured, \
            mock.patch.object(calib._Screen, "contenders", counted):
        search_weight_scales(weights, dense_plan(cols), partition, 0.03, target, cfg, bias,
                             "relu")
    assert len(kept) == cfg.iterations * partition.v_groups * partition.h_groups
    assert measured.call_count == 1 + sum(kept)


def full_step3(weights, plan, target, granularity, cfg, bias, activation, slope):
    """Steps 1 to 3 with every step-3 candidate evaluated, the center too."""
    layer = {"bias": bias, "activation": activation, "slope": slope}
    partition = make_partition(*weights.shape, granularity)
    center = search_input_scale(weights, plan, target, cfg, **layer)[0]
    grid, _, _ = search_weight_scales(weights, plan, partition, center, target, cfg, **layer)
    scales = ScaleSet(partition, grid, center, cfg.weight_bits, cfg.act_bits)
    return center, search_input_scale(weights, plan, target, cfg, scales, **layer)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("granularity", GRANULARITIES, ids=lambda g: g.describe())
@pytest.mark.parametrize("tie", [False, True], ids=["plain", "all-tied"])
def test_reused_center_equals_full_step3(metric, granularity, tie):
    """calibrate_layer takes step 3's center result from the weight search
    instead of evaluating it; scale, distance and output bytes must equal
    those of evaluating every candidate. In the tied case a bias of -100
    under ReLU zeroes every output, so every candidate ties with the center
    and the smallest candidate, below the center, must still win."""
    weights, cols, bias = make_layer(11)
    if tie:
        bias = np.full_like(bias, -100.0)
    target = target_of(weights, cols, None, "relu", seed=3)
    cfg = CalibConfig(grid_size=15, iterations=1, metric=metric)
    plan = dense_plan(cols)
    center, expect = full_step3(weights, plan, target, granularity, cfg, bias, "relu", 0.01)
    with mock.patch.object(quant, "grouped_terms", wraps=quant.grouped_terms) as forward:
        cal = calibrate_layer(weights, plan, target, granularity, cfg, bias, "relu")
    candidates = np.unique(np.append(scale_space(cfg.alpha, cfg.beta, center, 15), center))
    assert forward.call_count == len(candidates) - 1  # all but the center
    assert (cal.scales.input_scale, distance(cal.output, target, metric)) == expect[:2]
    assert cal.output.tobytes() == expect[2].tobytes()
    if tie:
        assert not np.any(cal.output)
        assert cal.scales.input_scale == center * cfg.alpha < center


@pytest.mark.parametrize("width,ok", [(2, True), (3, False)])
def test_exact_accumulation_guard_at_bound(width, ok):
    """At 27-bit codes the worst case width * 2^26 * 2^26 is exactly 2^53 for
    two columns, which still accumulates exactly; a third column must raise,
    both in the grouped forward and in the searches that use it."""
    bits = 27
    weights = np.full((2, width), -1.0, dtype=np.float32)
    cols = np.full((width, 3), -1.0, dtype=np.float32)
    partition = make_partition(2, width, GranularityConfig("layerwise"))
    scales = partial(ScaleSet, partition, [[1e-9]], 1e-9, weight_bits=bits, act_bits=bits)
    cfg = CalibConfig(grid_size=3, iterations=1, weight_bits=bits, act_bits=bits)
    target = np.zeros((2, 3), dtype=np.float32)

    def step3():
        return search_input_scale(weights, dense_plan(cols), target, cfg, scales())

    if ok:
        out = dense_forward(weights, cols, scales())
        expect = reference_quantized_forward_layer(weights, cols, partition, scales())
        assert np.array_equal(out, expect)
        assert out[0, 0] == np.float32(2.0 ** 53 * 1e-9 * 1e-9)
        assert step3()[0] is not None
        search_weight_scales(weights, dense_plan(cols), partition, 1e-9, target, cfg)
    else:
        for run in (lambda: dense_forward(weights, cols, scales()), step3,
                    lambda: search_weight_scales(weights, dense_plan(cols), partition, 1e-9,
                                                 target, cfg)):
            with pytest.raises(ValueError, match="exact float64 range"):
                run()


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("build,layer_id", [(build_small_cnn, "conv3"),
                                            (build_resnet20_style, "s2b1.conv1"),
                                            (build_resnet20_style, "s2b1.down")],
                         ids=["small_cnn-conv3", "resnet20-s2b1.conv1", "resnet20-s2b1.down"])
def test_searches_through_the_plan_match_the_dense_oracle(metric, build, layer_id):
    """Steps 1, 2 and 3 on a layer's LoweredInput give the scales, distances
    and outputs of the same steps on the float32 im2col matrix, each entry
    its own value (dense_plan), with the reference quantization formula, at
    stride 1 (3x3) and stride 2 (3x3, and 1x1, whose lowering skips three of
    every four input elements)."""
    graph = prepare_for_quantization(build())
    refs = forward_float(graph, random_inputs(graph, 4, seed=5))
    layer = graph.layer(layer_id)
    x = refs[layer.predecessors[0]]
    weights = layer.weight_matrix()
    target = reference_target(layer, refs[layer.id])
    cfg = CalibConfig(grid_size=12, iterations=1, metric=metric)
    partition = make_partition(*weights.shape, GranularityConfig("method1", 4, 36))
    layer_args = {"bias": layer.bias, "activation": layer.activation, "slope": layer.slope}

    def steps(cols):
        step1 = search_input_scale(weights, cols, target, cfg, **layer_args)
        grid, trace, out = search_weight_scales(weights, cols, partition, step1[0], target,
                                                cfg, **layer_args)
        step3 = search_input_scale(weights, cols, target, cfg,
                                   ScaleSet(partition, grid, step1[0]), **layer_args)
        return step1, grid, trace, step3, out

    got = steps(plan_layer_input(layer, x))
    with mock.patch.object(calib, "quantize_values", reference_quantize_values):
        expect = steps(dense_plan(reference_im2col(x, layer.kernel, layer.stride,
                                                   layer.padding)))
    for step in (0, 3):
        assert got[step][:2] == expect[step][:2]
        assert np.array_equal(got[step][2], expect[step][2])
    assert np.array_equal(got[1], expect[1])
    assert got[2] == expect[2]
    assert got[4].tobytes() == expect[4].tobytes()


def test_weight_search_rejects_a_plan_with_an_extra_row():
    """A lowered input of J + 1 rows is an error, not J rows read and the
    last ignored."""
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(4, 6))
    partition = make_partition(4, 6, GranularityConfig("method1", 2, 3))
    cols = rng.normal(size=(7, 5))
    with pytest.raises(ValueError, match="input rows 7"):
        search_weight_scales(weights, dense_plan(cols), partition, 0.05,
                             np.zeros((4, 5), np.float32), CalibConfig(grid_size=3))
