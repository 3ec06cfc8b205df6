"""Permutation mechanics, function preservation, and the evolutionary search."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_search import commit_reordering, forward_float, reference_score_block
from subquant.calib import CalibConfig, distance
from subquant.errors import BadInputError
from subquant.fixtures import (
    build_resnet20_style,
    build_small_cnn,
    build_toy_segment_net,
    random_inputs,
)
from subquant.model import (
    Segment,
    load_bundle,
    prepare_for_quantization,
    save_bundle,
)
from subquant.quant import GranularityConfig
from subquant.reorder import (
    ReorderConfig,
    apply_input_permutation,
    apply_output_permutation,
    check_segments,
    ea_search,
    is_permutation,
    joint_reorder,
    mutate,
    score_block,
)


def prepared_resnet20():
    return prepare_for_quantization(build_resnet20_style())


class TestPermutationOps:
    def test_identity_output_perm_is_noop(self):
        graph = prepared_resnet20()
        layer = graph.layer("s1b1.conv1")
        out = apply_output_permutation(layer, np.arange(layer.out_channels))
        np.testing.assert_array_equal(out.weight, layer.weight)
        np.testing.assert_array_equal(out.bias, layer.bias)

    def test_swap_exchanges_rows(self):
        graph = prepared_resnet20()
        layer = graph.layer("s1b1.conv1")
        perm = np.arange(layer.out_channels)
        perm[[0, 1]] = perm[[1, 0]]
        out = apply_output_permutation(layer, perm)
        np.testing.assert_array_equal(out.weight[0], layer.weight[1])
        np.testing.assert_array_equal(out.weight[1], layer.weight[0])
        np.testing.assert_array_equal(out.weight[2:], layer.weight[2:])

    def test_perm_then_inverse_restores(self):
        graph = prepared_resnet20()
        layer = graph.layer("s1b2.conv2")
        rng = np.random.default_rng(0)
        perm = rng.permutation(layer.out_channels)
        back = apply_output_permutation(apply_output_permutation(layer, perm),
                                        np.argsort(perm))
        np.testing.assert_array_equal(back.weight, layer.weight)
        np.testing.assert_array_equal(back.bias, layer.bias)

    def test_input_perm_k1_is_column_reorder(self):
        graph = prepared_resnet20()
        layer = graph.layer("s2b1.down")  # 1x1 conv
        rng = np.random.default_rng(1)
        perm = rng.permutation(layer.in_channels)
        out = apply_input_permutation(layer, perm)
        np.testing.assert_array_equal(out.weight_matrix(), layer.weight_matrix()[:, perm])

    def test_input_perm_k3_moves_blocks(self):
        graph = prepared_resnet20()
        layer = graph.layer("conv0")  # IC=3, K=3
        perm = np.array([2, 1, 0])
        out = apply_input_permutation(layer, perm)
        w2, w2p = layer.weight_matrix(), out.weight_matrix()
        np.testing.assert_array_equal(w2p[:, 0:9], w2[:, 18:27])
        np.testing.assert_array_equal(w2p[:, 9:18], w2[:, 9:18])
        np.testing.assert_array_equal(w2p[:, 18:27], w2[:, 0:9])
        # input channel c owns the K*K = 9 columns 9c .. 9c+8
        cols = np.concatenate([np.arange(18, 27), np.arange(9, 18), np.arange(0, 9)])
        np.testing.assert_array_equal(w2p, w2[:, cols])

    def test_size_mismatch_rejected(self):
        graph = prepared_resnet20()
        layer = graph.layer("s1b1.conv1")
        with pytest.raises(ValueError):
            apply_output_permutation(layer, np.arange(3))
        with pytest.raises(ValueError):
            apply_input_permutation(layer, np.arange(3))


class TestJointReorder:
    def test_identity_perms_bit_identical(self):
        graph = prepared_resnet20()
        layers = [graph.layer("s1b1.conv1"), graph.layer("s1b1.conv2")]
        out = joint_reorder(layers, [np.arange(8)])
        for a, b in zip(out, layers):
            np.testing.assert_array_equal(a.weight, b.weight)

    def test_random_perm_preserves_float_function(self):
        rng = np.random.default_rng(2)
        graph = prepared_resnet20()
        x = random_inputs(graph, 4, seed=3)
        baseline = forward_float(graph, x)["output"]
        for seg in graph.segments[:4]:
            layers = [graph.layer(lid) for lid in seg.layer_ids]
            perms = [rng.permutation(layers[0].out_channels)]
            commit_reordering(graph, seg, perms)
        out = forward_float(graph, x)["output"]
        scale = np.abs(baseline).max()
        assert np.abs(out - baseline).max() <= 1e-5 * scale

    @settings(max_examples=30, deadline=None, database=None)
    @given(build=st.sampled_from([build_resnet20_style, build_toy_segment_net]),
           data=st.data())
    def test_joint_reordering_preserves_float_function(self, build, data):
        """Any joint reordering of any subset of segments leaves the float
        output unchanged up to summation order (an input-permuted conv sums
        its terms in another order)."""
        graph = prepare_for_quantization(build())
        x = random_inputs(graph, 2, seed=data.draw(st.integers(0, 2 ** 16)))
        baseline = forward_float(graph, x)["output"]
        for seg in graph.segments:
            if not data.draw(st.booleans()):
                continue
            layers = [graph.layer(lid) for lid in seg.layer_ids]
            perms = [np.array(data.draw(st.permutations(range(layer.out_channels))))
                     for layer in layers[:-1]]
            commit_reordering(graph, seg, perms)
        out = forward_float(graph, x)["output"]
        assert np.abs(out - baseline).max() <= 1e-5 * np.abs(baseline).max()

    def test_boundary_channels_untouched(self):
        # the block output is channel-aligned with the shortcut: reordering a
        # segment must leave the residual-add consistent, which the function
        # preservation test implies; here we check the slot count contract
        graph = prepared_resnet20()
        layers = [graph.layer(lid) for lid in graph.segments[0].layer_ids]
        with pytest.raises(ValueError):
            joint_reorder(layers, [])


class TestMutate:
    def test_single_channel_is_identity(self):
        rng = np.random.default_rng(3)
        out = mutate(np.array([0]), 30, rng)
        np.testing.assert_array_equal(out, [0])

    def test_always_bijective(self):
        rng = np.random.default_rng(4)
        for c in (2, 5, 16, 33):
            perm = np.arange(c)
            for _ in range(25):
                perm = mutate(perm, 30, rng)
                assert is_permutation(perm)

    def test_seeded_reproducibility(self):
        a = mutate(np.arange(12), 5, np.random.default_rng(9))
        b = mutate(np.arange(12), 5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


def toy_fitness(grid_size=10, samples=4, iterations=1, seed=0):
    """The toy segment's layers and their block fitness."""
    graph = build_toy_segment_net()
    x = random_inputs(graph, samples, seed=seed)
    cfg = CalibConfig(grid_size=grid_size, iterations=iterations, samples=samples)
    [layers] = check_segments(graph)
    return layers, partial(score_block, x, GranularityConfig("method1", 2, 18), cfg)


class TestEASearch:
    def test_lossless_block_identity_wins_with_zero(self):
        # Exactness must chain through both layers: every weight row holds a
        # full-range -8 code, and the data is arranged so each stage's largest
        # magnitude is negative and every value lands on the derived grid.
        from subquant.model import Layer, ModelGraph, Segment
        dw, dx = 0.25, 0.0625
        w_a = (np.array([[7, -8], [0, -8]], np.float32) * dw).reshape(2, 2, 1, 1)
        w_b = (np.array([[-8, 0], [4, -8]], np.float32) * dw).reshape(2, 2, 1, 1)
        layers = [Layer(id="input", kind="input"),
                  Layer(id="convA", kind="conv", predecessors=["input"], out_channels=2,
                        in_channels=2, kernel=1, quantize=True, weight=w_a),
                  Layer(id="convB", kind="conv", predecessors=["convA"], out_channels=2,
                        in_channels=2, kernel=1, quantize=True, weight=w_b),
                  Layer(id="output", kind="output", predecessors=["convB"])]
        graph = ModelGraph(layers, segments=[Segment("block1", ["convA", "convB"])],
                           input_shape=[1, 2, 2, 2]).validate()
        # codes are multiples of 8; position (0,0) carries (-128, 16) so the
        # first conv output reaches exactly -1024 * dw * dx and nothing clamps
        q0 = np.array([[-128, 8], [-64, 56]], np.float32)
        q1 = np.array([[16, -64], [40, 0]], np.float32)
        x = (np.stack([q0, q1])[None] * dx).astype(np.float32)
        cfg = CalibConfig(grid_size=101, iterations=1, samples=1)
        [chain] = check_segments(graph)
        fitness = partial(score_block, x, GranularityConfig("channelwise"), cfg)
        result = ea_search(chain, fitness, ReorderConfig(population=2, iterations=1, seed=0))
        assert result.identity_score == 0.0
        assert result.best_score == 0.0
        np.testing.assert_array_equal(result.best_perms[0], [0, 1])

    def test_fake_fitness_scores_each_distinct_joint_reordering_once(self):
        """No calibration: the fitness reads the permutations back from
        weights that name their origin (100 * output + input channel) and
        scores them by the rearrangement sum, which the identity minimizes."""
        from subquant.model import Layer
        sizes = [3, 5, 4, 2]  # in, slot 1, slot 2, out
        layers = [Layer(id=f"conv{i}", kind="conv", predecessors=[f"conv{i - 1}"],
                        out_channels=oc, in_channels=ic, kernel=1,
                        weight=(100 * np.arange(oc)[:, None] + np.arange(ic)).astype(
                            np.float32).reshape(oc, ic, 1, 1))
                  for i, (ic, oc) in enumerate(zip(sizes, sizes[1:]))]
        scored, values = [], []

        def fitness(reordered):
            outs = [tuple(int(v) for v in layer.weight[:, 0, 0, 0] // 100)
                    for layer in reordered[:-1]]
            ins = [tuple(int(v) for v in layer.weight[0, :, 0, 0] % 100)
                   for layer in reordered[1:]]
            scored.append((outs, ins))
            values.append(-float(sum(i * v for perm in outs for i, v in enumerate(perm))))
            return values[-1]

        cfg = ReorderConfig(population=6, iterations=4, max_pairs=2, seed=5)
        result = ea_search(layers, fitness, cfg)
        parents = max(1, round(cfg.population * cfg.selection))
        individuals = [tuple(outs) for outs, _ in scored]
        assert len(set(individuals)) == len(individuals)
        assert len(individuals) <= cfg.population + cfg.iterations * (cfg.population - parents)
        assert individuals[0] == (tuple(range(5)), tuple(range(4)))
        assert all(outs == ins for outs, ins in scored)
        assert result.identity_score == values[0]
        assert result.best_score == max(values) >= result.identity_score
        best = tuple(tuple(int(v) for v in perm) for perm in result.best_perms)
        assert values[individuals.index(best)] == result.best_score
        again = ea_search(layers, fitness, cfg)
        assert (again.best_score, again.identity_score) == (result.best_score,
                                                            result.identity_score)
        for pa, pb in zip(again.best_perms, result.best_perms):
            np.testing.assert_array_equal(pa, pb)

    @pytest.mark.parametrize("top", [lambda outs: -1.0, lambda outs: float(outs[0][0] != 0)],
                             ids=["flat", "two-levels"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ties_at_the_top_go_to_the_first_scored(self, top, seed):
        """Of the distinct individuals that share the top score, the search
        returns the first one scored, with that score."""
        from subquant.model import Layer
        sizes = [2, 4, 3, 2]  # in, slot 1, slot 2, out
        layers = [Layer(id=f"conv{i}", kind="conv", predecessors=[f"conv{i - 1}"],
                        out_channels=oc, in_channels=ic, kernel=1,
                        weight=(100 * np.arange(oc)[:, None] + np.arange(ic)).astype(
                            np.float32).reshape(oc, ic, 1, 1))
                  for i, (ic, oc) in enumerate(zip(sizes, sizes[1:]))]
        scored = []

        def fitness(reordered):
            outs = tuple(tuple(int(v) for v in layer.weight[:, 0, 0, 0] // 100)
                         for layer in reordered[:-1])
            scored.append((outs, top(outs)))
            return scored[-1][1]

        result = ea_search(layers, fitness,
                           ReorderConfig(population=6, iterations=4, max_pairs=2, seed=seed))
        best = max(value for _, value in scored)
        tied = [outs for outs, value in scored if value == best]
        assert len(tied) >= 2
        assert tuple(tuple(int(v) for v in perm) for perm in result.best_perms) == tied[0]
        assert result.best_score == best

    def test_never_worse_than_identity(self):
        layers, fitness = toy_fitness()
        for seed in (0, 1, 2):
            result = ea_search(layers, fitness,
                               ReorderConfig(population=6, iterations=3, seed=seed))
            assert result.best_score >= result.identity_score

    def test_deterministic_given_seed(self):
        layers, fitness = toy_fitness()
        cfg = ReorderConfig(population=5, iterations=2, seed=11)
        a = ea_search(layers, fitness, cfg)
        b = ea_search(layers, fitness, cfg)
        assert a.best_score == b.best_score
        for pa, pb in zip(a.best_perms, b.best_perms):
            np.testing.assert_array_equal(pa, pb)

    def test_score_block_matches_unconstrained_scoring_path(self):
        # scoring a jointly reordered block and scoring the explicit pair of
        # layer transforms must agree: they share one code path
        layers, fitness = toy_fitness()
        rng = np.random.default_rng(6)
        perm = rng.permutation(4)
        via_joint = fitness(joint_reorder(layers, [perm]))
        manual = [apply_output_permutation(layers[0], perm),
                  apply_input_permutation(layers[1], perm)]
        assert fitness(manual) == via_joint


class TestScoreBlock:
    def test_equals_interleaved_loop_on_random_reorderings(self):
        """The two executor passes must reproduce the interleaved float and
        quantized loop exactly, down to the last ulp of the score."""
        graph = prepared_resnet20()
        x = random_inputs(graph, 4, seed=3)
        refs = forward_float(graph, x)
        cfg = CalibConfig(grid_size=8, iterations=1, samples=4)
        rng = np.random.default_rng(8)
        for chain in check_segments(graph)[::4]:
            setup = (refs[chain[0].predecessors[0]], GranularityConfig("method1", 4, 36), cfg)
            for _ in range(3):
                perm = rng.permutation(chain[0].out_channels)
                layers = joint_reorder(chain, [perm])
                assert score_block(*setup, layers) == reference_score_block(*setup, layers)


    def test_unquantized_block_scores_zero(self):
        """A conv with quantize false runs in float while the block is scored,
        as it does in the network, so an all-float block equals its reference."""
        layers, fitness = toy_fitness()
        score = fitness([replace(layer, quantize=False) for layer in layers])
        assert score == 0.0 and math.copysign(1.0, score) == -1.0


class TestSegmentChain:
    @pytest.mark.parametrize("layer_ids,fault", [
        (["conv4", "add1"], "add1 is a residual-add layer"),
        (["conv3", "conv5"], "conv3 feeds ['conv4'], not only conv5"),
        (["conv2", "conv3"], "conv2 feeds ['conv3', 'add1']"),
    ])
    def test_non_chain_rejected(self, layer_ids, fault):
        graph = prepare_for_quantization(build_small_cnn())
        graph.segments = [Segment("bad", layer_ids)]
        with pytest.raises(BadInputError, match=r"segment bad is not a conv chain") as err:
            check_segments(graph)
        assert fault in str(err.value)

    def test_empty_segment_rejected(self):
        graph = prepare_for_quantization(build_small_cnn())
        graph.segments = [Segment("bad", [])]
        with pytest.raises(BadInputError, match="no layers"):
            check_segments(graph)


def test_reorder_config_validation():
    with pytest.raises(ValueError):
        ReorderConfig(population=1)
    with pytest.raises(ValueError):
        ReorderConfig(iterations=0)
    with pytest.raises(ValueError):
        ReorderConfig(selection=1.0)
    for population, selection in ((2, 0.75), (40, 0.99)):  # every individual a parent
        with pytest.raises(ValueError, match="no offspring"):
            ReorderConfig(population=population, selection=selection)
