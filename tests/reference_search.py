"""Unbatched reference implementations of the weight search and the grouped
forward, kept as oracles for the batched versions in `subquant`, plus the
block fitness written as its own layer loop, an oracle for the executor-based
`score_block`, and the earlier forms of the quantization formula, of
im2col and of the euclidean distance; two adapters that run a dense
[J, P] matrix through the production input forms; `forward_float`, the
float network's outputs as one dict; and `commit_reordering`, which writes
a segment's joint reordering into a graph as `subquant reorder` does.

`reference_search_weight_scales` scores every grid candidate with
`distance()` on the full layer output; `reference_quantized_forward_layer`
quantizes and multiplies one (v, h) group at a time. Both define the
results the library must reproduce bit for bit.
"""

import numpy as np

from subquant.calib import LoweredInput, calibrate_layer, distance, scale_space
from subquant.model import execute, float_conv, lower_layer_input, raise_layer_output
from subquant.quant import (
    check_exact_accumulation,
    init_scale,
    quantize_values,
    quantized_layer,
)
from subquant.reorder import joint_reorder
from subquant.tensor import apply_activation, conv_output_hw, conv_reference


def dense_plan(cols):
    """The LoweredInput of a dense [J, P] matrix: every entry is its own
    value, gathered once."""
    return LoweredInput(np.asarray(cols, np.float64).reshape(-1),
                        np.arange(cols.size).reshape(cols.shape))


def dense_forward(weights, cols, scales, bias=None, activation="identity", slope=0.01):
    """quantized_layer of a dense [J, P] matrix, run as a batch of P
    one-column samples that np.transpose lowers back to the matrix."""
    return quantized_layer(weights, scales, bias, activation, slope,
                           lower=np.transpose)(np.asarray(cols).T)


def forward_float(graph, x):
    """Every layer's float output on the batch `x`, keyed by id: the whole
    float walk held at once, which the library never builds."""
    return {layer.id: out
            for layer, out in execute(graph.layers, {graph.input_id: x}, float_conv)}


def commit_reordering(graph, segment, perms):
    """Replace a segment's layers in `graph` by their joint reordering."""
    reordered = {layer.id: layer for layer in joint_reorder(
        [graph.layer(lid) for lid in segment.layer_ids], list(perms))}
    graph.layers = [reordered.get(layer.id, layer) for layer in graph.layers]


def reference_quantize_values(x, scale, bits):
    """clamp(copysign(floor(|x / scale| + 0.5), x / scale)) with np.clip, the
    formula quantize_values had before its truncating kernel."""
    y = np.divide(x, scale, dtype=np.float64)
    q = np.copysign(np.floor(np.abs(y) + 0.5), y)
    return np.clip(q, -(2 ** (bits - 1)), 2 ** (bits - 1) - 1)


def reference_distance(a, b):
    """The euclidean distance() before its single float64 difference: both
    inputs cast to float64 copies, then (x - y) ** 2 summed."""
    x = np.asarray(a).reshape(-1).astype(np.float64)
    y = np.asarray(b).reshape(-1).astype(np.float64)
    return float(np.sqrt(np.sum((x - y) ** 2)))


def reference_im2col(x, kernel, stride=1, padding=0):
    """The float32 im2col: np.pad, then one transposed copy per kernel offset."""
    n, c, h, w = x.shape
    out_h, out_w = conv_output_hw(h, w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((c, kernel, kernel, n, out_h, out_w), dtype=np.float32)
    for ki in range(kernel):
        for kj in range(kernel):
            patch = x[:, :, ki:ki + stride * out_h:stride, kj:kj + stride * out_w:stride]
            cols[:, ki, kj] = patch.transpose(1, 0, 2, 3)
    return cols.reshape(c * kernel * kernel, n * out_h * out_w)


def finish_row_group(tiles, group_scales, input_scale, bias_rows, activation, slope):
    """One row group's output: each integer tile times its group scale and the
    input scale, summed in ascending h, then bias and activation; float32."""
    acc = (float(group_scales[0]) * input_scale) * tiles[0]
    for h in range(1, len(tiles)):
        acc = acc + (float(group_scales[h]) * input_scale) * tiles[h]
    if bias_rows is not None:
        acc = acc + np.asarray(bias_rows, dtype=np.float64)[:, None]
    return apply_activation(acc, activation, slope).astype(np.float32)


def reference_search_weight_scales(weights, cols, partition, input_scale, target, cfg,
                                   bias=None, activation="identity", slope=0.01):
    oc, p = weights.shape[0], cols.shape[1]
    q_cols = quantize_values(cols, input_scale, cfg.act_bits)
    col_blocks = [q_cols[c0:c1] for c0, c1 in partition.col_ranges]
    v_groups, h_groups = partition.v_groups, partition.h_groups

    w_groups = [[weights[r0:r1, c0:c1] for c0, c1 in partition.col_ranges]
                for r0, r1 in partition.row_ranges]
    scales = np.empty((v_groups, h_groups), dtype=np.float64)
    skip = np.zeros((v_groups, h_groups), dtype=bool)
    tiles = [[None] * h_groups for _ in range(v_groups)]
    for v in range(v_groups):
        for h in range(h_groups):
            group = w_groups[v][h]
            scales[v, h] = init_scale(group, cfg.weight_bits)
            skip[v, h] = not np.any(group)
            tiles[v][h] = quantize_values(group, scales[v, h], cfg.weight_bits) @ col_blocks[h]

    out = np.empty((oc, p), dtype=np.float32)
    bias_rows = [None] * v_groups if bias is None else \
        [bias[r0:r1] for r0, r1 in partition.row_ranges]
    for v, (r0, r1) in enumerate(partition.row_ranges):
        out[r0:r1] = finish_row_group(tiles[v], scales[v], input_scale, bias_rows[v],
                                      activation, slope)

    trace = [distance(out, target, cfg.metric)]
    for _ in range(cfg.iterations):
        for v, (r0, r1) in enumerate(partition.row_ranges):
            for h in range(h_groups):
                if skip[v, h]:
                    continue
                d_best = distance(out, target, cfg.metric)
                entry_scale = scales[v, h]
                incumbent_rows = out[r0:r1].copy()
                incumbent_tile = tiles[v][h]
                best = (entry_scale, incumbent_tile, incumbent_rows)
                row_scales = scales[v].copy()
                for cand in scale_space(cfg.alpha, cfg.beta, entry_scale, cfg.grid_size):
                    cand = float(cand)
                    tile = quantize_values(w_groups[v][h], cand, cfg.weight_bits) \
                        @ col_blocks[h]
                    tiles[v][h] = tile
                    row_scales[h] = cand
                    block = finish_row_group(tiles[v], row_scales, input_scale,
                                             bias_rows[v], activation, slope)
                    out[r0:r1] = block
                    d = distance(out, target, cfg.metric)
                    if d < d_best:
                        d_best = d
                        best = (cand, tile, block)
                scales[v, h], tiles[v][h], out[r0:r1] = best
        trace.append(distance(out, target, cfg.metric))
    return scales, trace, out


def reference_quantized_forward_layer(weights, cols, partition, scales, bias=None,
                                      activation="identity", slope=0.01):
    check_exact_accumulation(partition, scales.weight_bits, scales.act_bits)
    q_cols = quantize_values(cols, scales.input_scale, scales.act_bits)
    oc, p = weights.shape[0], cols.shape[1]
    out = np.empty((oc, p), dtype=np.float32)
    for v, (r0, r1) in enumerate(partition.row_ranges):
        tiles = []
        for h, (c0, c1) in enumerate(partition.col_ranges):
            qw = quantize_values(weights[r0:r1, c0:c1], scales.weight_scales[v, h],
                                 scales.weight_bits)
            tiles.append(qw @ q_cols[c0:c1])
        out[r0:r1] = finish_row_group(tiles, scales.weight_scales[v], scales.input_scale,
                                      None if bias is None else bias[r0:r1],
                                      activation, slope)
    return out


def reference_score_block(block_input, granularity, calib_cfg, layers):
    """The block fitness as one interleaved loop: float and quantized
    activations advance together, each layer calibrated against its float
    output in the lowered [OC, P] layout."""
    current_f = current_q = block_input
    for layer in layers:
        cols_f = lower_layer_input(layer, current_f)
        out_f = conv_reference(layer.weight_matrix(), cols_f, layer.activation,
                               layer.bias, layer.slope)
        cols_q = lower_layer_input(layer, current_q)
        out_q = calibrate_layer(layer.weight_matrix(), dense_plan(cols_q), out_f,
                                granularity, calib_cfg, layer.bias,
                                layer.activation, layer.slope).output
        current_f = raise_layer_output(layer, out_f, current_f.shape)
        current_q = raise_layer_output(layer, out_q, current_q.shape)
    return -distance(out_q, out_f, "euclidean")
