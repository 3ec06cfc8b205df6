"""Mapping function, partition geometry, and grouped forward equivalences."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_search import dense_forward, reference_quantize_values
from subquant.quant import (
    GRANULARITY_MODES,
    GranularityConfig,
    ScaleSet,
    check_exact_accumulation,
    init_scale,
    make_partition,
    quantize_values,
    quantize_weight_groups,
    quantized_layer,
    sum_terms,
)
from subquant.tensor import conv_reference


class TestMappingFunction:
    def test_8bit_range(self):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=100.0, size=10000)
        q = quantize_values(x, 0.05, 8)
        assert q.min() >= -128 and q.max() <= 127

    def test_zero_maps_to_zero(self):
        for bits in (2, 4, 8, 16):
            assert quantize_values(0.0, 0.37, bits) == 0

    def test_clamp_endpoints(self):
        assert quantize_values(100.0, 1.0, 4) == 7
        assert quantize_values(-100.0, 1.0, 4) == -8

    def test_known_value_spot_checks(self):
        assert quantize_values(-0.8, 0.1, 4) == -8
        assert 0.5 * quantize_values(-1.5, 0.5, 4) == -1.5
        assert quantize_values(-1.5, 0.5, 4) == -3

    def test_round_half_away_from_zero(self):
        np.testing.assert_array_equal(
            quantize_values(np.array([0.5, 1.5, 2.5, -0.5, -2.5]), 1.0, 8),
            [1, 2, 3, -1, -3])

    def test_roundtrip_exact_on_grid(self):
        grid = np.arange(-32, 32) * 0.25
        np.testing.assert_array_equal(0.25 * quantize_values(grid, 0.25, 6), grid)

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(1)
        scale = 0.1
        for bits in (3, 5, 8):
            lim = (2 ** (bits - 1) - 1) * scale
            x = rng.uniform(-lim, lim, size=3000)
            err = np.abs(scale * quantize_values(x, scale, bits) - x)
            assert err.max() <= scale / 2 + 1e-12

    def test_large_input_matches_elementwise_formula(self):
        """Inputs past the cache block size go through the block loop; every
        code must equal the one-shot formula, halves and clamps included."""
        rng = np.random.default_rng(2)
        x = rng.normal(scale=3.0, size=(300, 500)).astype(np.float32)
        x[0, :4] = [0.125, -0.125, 0.375, -50.0]  # halves of 0.25 and a clamp
        for arr in (x, x[:, ::3], x.astype(np.float64)):
            manual = np.clip(np.copysign(np.floor(np.abs(arr.astype(np.float64) / 0.25)
                                                  + 0.5), arr), -128, 127)
            q = quantize_values(arr, 0.25, 8)
            np.testing.assert_array_equal(q, manual)
            assert q.dtype == np.float64 and q.shape == arr.shape


def adversarial_values(scale, bits):
    """Inputs whose codes are easy to get wrong: exact halves, the largest
    double below 0.5, signed zeros, infinities, NaN, the clamp endpoints and
    their neighbours, plus the float64 extremes."""
    top = 2.0 ** (bits - 1)
    ks = np.concatenate([np.arange(-8, 8), [-top - 1, -top, top - 2, top - 1, top]])
    ys = np.concatenate([ks, ks + 0.5, [0.49999999999999994, -0.49999999999999994,
                                        top - 0.5, -top - 0.5, top + 0.5]])
    x = np.concatenate([ys * scale, ys, [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                                         5e-324, -5e-324, 1.7e308, -1.7e308]])
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestQuantizeKernel:
    """quantize_values against the np.clip formula it replaced, bit for bit:
    values, NaN positions and the signs of zeros and NaN."""

    @staticmethod
    def assert_same_codes(got, want):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    @pytest.mark.parametrize("scale", [1.0, 0.25, 0.1, 3.0, 7.5e-5, 2.0 ** -20])
    def test_adversarial_values(self, scale, bits):
        x = adversarial_values(scale, bits)
        self.assert_same_codes(quantize_values(x, scale, bits),
                               reference_quantize_values(x, scale, bits))
        x32 = x.astype(np.float32)
        self.assert_same_codes(quantize_values(x32, scale, bits),
                               reference_quantize_values(x32, scale, bits))

    @pytest.mark.parametrize("bits", [2, 8])
    def test_blocked_and_per_row_paths(self, bits):
        """Large inputs run block by block; a scale vector broadcasts per row."""
        x = adversarial_values(0.25, bits)
        big = np.tile(x, 3 * (1 << 15) // x.size + 1)
        assert big.size > 1 << 16
        self.assert_same_codes(quantize_values(big, 0.25, bits),
                               reference_quantize_values(big, 0.25, bits))
        rows = np.stack([x, -x, 3 * x])
        row_scales = np.array([[0.25], [0.1], [3.0]])
        self.assert_same_codes(quantize_values(rows, row_scales, bits),
                               reference_quantize_values(rows, row_scales, bits))


class TestInitScale:
    def test_covering_max_per_row(self):
        assert init_scale(np.array([0.1, -0.8]), 4) == pytest.approx(0.1)
        assert init_scale(np.array([0.5, -1.5]), 4) == pytest.approx(0.1875)

    def test_all_zero_sentinel(self):
        g = np.zeros(6)
        assert init_scale(g, 4) == 1.0
        # any scale reproduces an all-zero group exactly
        assert np.all(quantize_values(g, 1.0, 4) == 0)


def coverage(p):
    """How many groups of partition p cover each entry of its [OC, J] matrix."""
    covered = np.zeros((p.out_channels, p.weights_per_channel), dtype=int)
    for r0, r1 in p.row_ranges:
        for c0, c1 in p.col_ranges:
            covered[r0:r1, c0:c1] += 1
    return covered


class TestPartition:
    def test_even_tiling(self):
        p = make_partition(4, 8, GranularityConfig("method1", 2, 4))
        assert (p.v_groups, p.h_groups) == (2, 2)
        assert p.row_ranges == ((0, 2), (2, 4))
        assert p.col_ranges == ((0, 4), (4, 8))

    def test_channelwise(self):
        p = make_partition(16, 576, GranularityConfig("channelwise"))
        assert (p.v_groups, p.h_groups) == (16, 1)
        assert p.col_ranges == ((0, 576),)

    def test_layerwise(self):
        p = make_partition(16, 576, GranularityConfig("layerwise"))
        assert (p.v_groups, p.h_groups) == (1, 1)

    def test_ragged_edges(self):
        p = make_partition(5, 7, GranularityConfig("method1", 2, 3))
        assert (p.v_groups, p.h_groups) == (3, 3)
        assert p.row_ranges[-1] == (4, 5)
        assert p.col_ranges[-1] == (6, 7)

    def test_method2_derives_cols(self):
        p = make_partition(8, 72, GranularityConfig("method2", 1, h_groups=4))
        assert p.cols_per_group == 18
        assert p.h_groups == 4
        # non-dividing h count still tiles exactly
        p = make_partition(8, 70, GranularityConfig("method2", 1, h_groups=4))
        assert p.cols_per_group == 18
        assert p.h_groups == 4
        assert p.col_ranges[-1] == (54, 70)

    def test_oversized_groups_clamp(self):
        p = make_partition(3, 5, GranularityConfig("method1", 10, 99))
        assert (p.v_groups, p.h_groups) == (1, 1)

    @pytest.mark.parametrize("oc,j,rows,cols", [
        (1, 1, 1, 1), (7, 13, 3, 5), (16, 144, 4, 36), (5, 9, 5, 9), (6, 6, 4, 4),
    ])
    def test_groups_tile_exactly(self, oc, j, rows, cols):
        p = make_partition(oc, j, GranularityConfig("method1", rows, cols))
        assert np.all(coverage(p) == 1)
        assert p.v_groups == -(-oc // rows)
        assert p.h_groups == -(-j // cols)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            make_partition(0, 4, GranularityConfig("layerwise"))

    @settings(max_examples=200, deadline=None, database=None)
    @given(mode=st.sampled_from(GRANULARITY_MODES), oc=st.integers(1, 40),
           j=st.integers(1, 300), rows=st.integers(1, 50), cols=st.integers(1, 400),
           h=st.integers(1, 40))
    def test_every_mode_covers_the_matrix_once(self, mode, oc, j, rows, cols, h):
        p = make_partition(oc, j, GranularityConfig(mode, rows, cols, h))
        assert np.all(coverage(p) == 1)


@settings(max_examples=100, deadline=None, database=None)
@given(weight_bits=st.integers(2, 16), act_bits=st.integers(2, 16))
def test_exact_accumulation_guard_fires_just_above_2_53(weight_bits, act_bits):
    """The widest column group may reach a worst-case partial sum of exactly
    2**53, the last integer float64 still counts exactly; one column more is
    rejected. A narrower trailing group does not hide the widest one."""
    def widest(cols):
        return make_partition(2, 2 * cols + 1, GranularityConfig("method1", 1, cols))

    width = 2 ** (55 - weight_bits - act_bits)
    check_exact_accumulation(widest(width), weight_bits, act_bits)
    with pytest.raises(ValueError, match=f"group width {width + 1}, "
                                         f"bits {weight_bits}/{act_bits}"):
        check_exact_accumulation(widest(width + 1), weight_bits, act_bits)


def channelwise_oracle(weights, cols, row_scales, input_scale, wb, ab, bias, activation):
    """Independent per-channel quantized conv, one row at a time."""
    from subquant.tensor import apply_activation
    oc, j = weights.shape
    out = np.zeros((oc, cols.shape[1]))
    qx = np.clip(np.copysign(np.floor(np.abs(cols / input_scale) + 0.5), cols),
                 -(2 ** (ab - 1)), 2 ** (ab - 1) - 1)
    for c in range(oc):
        w = weights[c] / row_scales[c]
        qw = np.clip(np.copysign(np.floor(np.abs(w) + 0.5), w),
                     -(2 ** (wb - 1)), 2 ** (wb - 1) - 1)
        out[c] = row_scales[c] * input_scale * (qw @ qx)
        if bias is not None:
            out[c] += bias[c]
    return apply_activation(out, activation).astype(np.float32)


class TestSumTerms:
    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("stack", [False, True], ids=["terms", "stack-first"])
    @pytest.mark.parametrize("as_iterator", [False, True], ids=["list", "iterator"])
    def test_new_array_and_inputs_unchanged(self, count, stack, as_iterator):
        """The sum shares no memory with any term and changes none of them,
        whether the first term is a [candidates, rows, P] stack that the
        others broadcast into or a term like the others."""
        rng = np.random.default_rng(count)
        terms = [rng.normal(size=(3, 4, 5) if stack and i == 0 else (4, 5))
                 for i in range(count)]
        before = [t.copy() for t in terms]
        expect = terms[0]
        for t in terms[1:]:
            expect = expect + t
        got = sum_terms(iter(terms) if as_iterator else terms)
        assert got.tobytes() == expect.tobytes() and got.shape == expect.shape
        assert not any(np.shares_memory(got, t) for t in terms)
        assert all(t.tobytes() == b.tobytes() for t, b in zip(terms, before))


class TestQuantizedForward:
    def test_lossless_on_dyadic_grid(self):
        # weights and inputs are exact in-range multiples of dyadic scales
        rng = np.random.default_rng(2)
        dw, dx = 0.125, 0.0625
        w = (rng.integers(-8, 8, size=(4, 6)) * dw).astype(np.float32)
        x = (rng.integers(-128, 128, size=(6, 9)) * dx).astype(np.float32)
        part = make_partition(4, 6, GranularityConfig("method1", 2, 3))
        scales = ScaleSet(part, np.full((2, 2), dw), dx)
        out = dense_forward(w, x, scales)
        ref = conv_reference(w, x)
        np.testing.assert_array_equal(out, ref)

    def test_single_group_equals_layerwise_form(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(5, 12)).astype(np.float32)
        x = rng.normal(size=(12, 7)).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        dw, dx = init_scale(w, 4), init_scale(x, 8)
        part = make_partition(5, 12, GranularityConfig("layerwise"))
        out = dense_forward(w, x, ScaleSet(part, np.array([[dw]]), dx), bias=b)
        qw = quantize_values(w, dw, 4)
        qx = quantize_values(x, dx, 8)
        expected = (dw * dx) * (qw @ qx) + b.astype(np.float64)[:, None]
        np.testing.assert_array_equal(out, expected.astype(np.float32))

    def test_channelwise_matches_independent_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            oc, j, p = rng.integers(2, 9), rng.integers(2, 20), rng.integers(1, 12)
            w = rng.normal(size=(oc, j)).astype(np.float32)
            x = rng.normal(size=(j, p)).astype(np.float32)
            b = rng.normal(size=oc).astype(np.float32)
            part = make_partition(oc, j, GranularityConfig("channelwise"))
            row_scales = np.array([init_scale(w[c], 4) for c in range(oc)])
            dx = init_scale(x, 8)
            out = dense_forward(
                w, x, ScaleSet(part, row_scales[:, None], dx), bias=b, activation="relu")
            want = channelwise_oracle(w, x, row_scales, dx, 4, 8, b, "relu")
            np.testing.assert_allclose(out, want, rtol=1e-6, atol=1e-7)

    def test_identity_codes_reduce_to_reference(self):
        # integer-valued data inside the code range with unit scales: Q is the
        # identity and the grouped pass must equal the float reference exactly
        rng = np.random.default_rng(5)
        w = rng.integers(-7, 8, size=(6, 10)).astype(np.float32)
        x = rng.integers(-127, 128, size=(10, 8)).astype(np.float32)
        part = make_partition(6, 10, GranularityConfig("method1", 2, 4))
        scales = ScaleSet(part, np.ones((3, 3)), 1.0)
        out = dense_forward(w, x, scales)
        np.testing.assert_array_equal(out, conv_reference(w, x))

    def test_codes_stay_in_range_everywhere(self):
        rng = np.random.default_rng(6)
        for bits in (2, 4, 8, 16):
            x = rng.normal(scale=rng.uniform(0.01, 100), size=2000)
            scale = rng.uniform(1e-4, 10)
            q = quantize_values(x, scale, bits)
            assert q.min() >= -(2 ** (bits - 1))
            assert q.max() <= 2 ** (bits - 1) - 1
            assert np.all(q == np.round(q))

    def test_rescale_mac_counter(self, term_sizes):
        rng = np.random.default_rng(7)
        oc, j, p = 6, 20, 11
        w = rng.normal(size=(oc, j)).astype(np.float32)
        x = rng.normal(size=(j, p)).astype(np.float32)
        part = make_partition(oc, j, GranularityConfig("method1", 4, 6))
        scales = ScaleSet(part, np.ones((part.v_groups, part.h_groups)), 1.0)
        dense_forward(w, x, scales)
        assert sum(term_sizes) == part.h_groups * oc * p

    def test_scale_grid_mismatch_rejected(self):
        w = np.ones((4, 4), dtype=np.float32)
        x = np.ones((4, 2), dtype=np.float32)
        part = make_partition(4, 4, GranularityConfig("method1", 2, 2))
        with pytest.raises(ValueError):
            dense_forward(w, x, ScaleSet(part, np.ones((1, 1)), 1.0))


# a 12x4 tiling: conv3 of small_cnn, 12x108 weights in 1x27 groups
GRID_12x4 = make_partition(12, 108, GranularityConfig("method1", 1, 27))


class TestScaleAndShapeChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scale_grid_entry_that_is_not_finite_rejected(self, bad):
        grid = np.full((12, 4), 0.05)
        grid[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ScaleSet(GRID_12x4, grid, 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_input_scale_that_is_not_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ScaleSet(GRID_12x4, np.full((12, 4), 0.05), bad)

    def test_scale_grid_of_the_wrong_shape_rejected(self):
        """A grid that does not tile its partition cannot be built, and the
        message names the partition."""
        with pytest.raises(ValueError, match=re.escape(
                "scale grid (4, 12) does not match the 12x4 partition of its 12x108 "
                "weights into 1x27 groups")):
            ScaleSet(GRID_12x4, np.full((4, 12), 0.05), 0.05)

    @pytest.mark.parametrize("act_bits,ok", [(26, True), (27, False)])
    def test_bits_past_the_exact_bound_rejected(self, act_bits, ok):
        """27-column groups: 27 * 2^23 * 2^25 is below 2^53, and one more
        activation bit is past it."""
        if ok:
            ScaleSet(GRID_12x4, np.full((12, 4), 0.05), 0.05, 24, act_bits)
            return
        with pytest.raises(ValueError, match=re.escape(
                "exceed the exact float64 range (group width 27, bits 24/27)")):
            ScaleSet(GRID_12x4, np.full((12, 4), 0.05), 0.05, 24, act_bits)

    def test_lowered_input_with_an_extra_row_rejected(self):
        """A lowering that gives J + 1 rows is an error, not J rows read and
        the last ignored."""
        part = make_partition(4, 6, GranularityConfig("method1", 2, 3))
        run = quantized_layer(np.ones((4, 6)), ScaleSet(part, np.ones((2, 2)), 1.0),
                              lower=np.transpose)
        with pytest.raises(ValueError, match="input rows 7"):
            run(np.ones((5, 7)), 1)

    def test_weights_with_an_extra_column_rejected(self):
        part = make_partition(4, 6, GranularityConfig("method1", 2, 3))
        with pytest.raises(ValueError, match="do not match partition 4x6"):
            quantize_weight_groups(np.ones((4, 7)), part, np.ones((2, 2)), 4)
