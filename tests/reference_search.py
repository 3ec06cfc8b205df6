"""Unbatched reference implementations of the weight search and the grouped
forward, kept as oracles for the batched versions in `subquant`.

`reference_search_weight_scales` scores every grid candidate with
`distance()` on the full layer output; `reference_quantized_forward_layer`
quantizes and multiplies one (v, h) group at a time. Both define the
results the library must reproduce bit for bit.
"""

import numpy as np

from subquant.calib import distance, scale_space
from subquant.quant import (
    check_exact_accumulation,
    combine_tiles,
    finish_rows,
    init_scale,
    quantize_values,
)


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
        out[r0:r1] = finish_rows(combine_tiles(tiles[v], scales[v], input_scale),
                                 bias_rows[v], activation, slope)

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
                    block = finish_rows(combine_tiles(tiles[v], row_scales, input_scale),
                                        bias_rows[v], activation, slope)
                    out[r0:r1] = block
                    d = distance(out, target, cfg.metric)
                    if d < d_best:
                        d_best = d
                        best = (cand, tile, block)
                scales[v, h], tiles[v][h], out[r0:r1] = best
        trace.append(distance(out, target, cfg.metric))
    return scales, trace


def reference_quantized_forward_layer(weights, cols, partition, scales, bias=None,
                                      activation="identity", slope=0.01, counters=None):
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
            if counters is not None:
                counters.rescale_macs += (r1 - r0) * p
        acc = combine_tiles(tiles, scales.weight_scales[v], scales.input_scale)
        out[r0:r1] = finish_rows(acc, None if bias is None else bias[r0:r1],
                                 activation, slope)
    return out
