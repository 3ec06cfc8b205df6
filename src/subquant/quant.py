"""Symmetric uniform quantization and the grouped sub-matrix forward pass.

A weight matrix [OC, J] is tiled into contiguous groups of at most
rows_per_group x cols_per_group entries; every group carries its own scale.
One scale covers all inputs of a layer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import finish, in_sample_blocks

GRANULARITY_MODES = ("layerwise", "channelwise", "method1", "method2")

# Integer products are accumulated in float64, which is exact as long as
# every partial sum stays below 2**53.
_EXACT_ACC_LIMIT = 2 ** 53

# quantize_values works through large inputs in blocks of this many elements
# (256 KB of float64), so its in-place passes stay in cache.
_QUANT_BLOCK = 1 << 15


def quantize_values(x, scale, bits):
    """Map reals to integer codes: clamp(round(x / scale)).

    Rounds halves away from zero. Returns float64 values that are exact
    integers, so BLAS matmuls on them behave as integer arithmetic. A large
    input under one scale is processed in cache-sized blocks; every element
    goes through the same float64 operations either way.
    """
    x = np.asarray(x)
    if np.ndim(scale) or x.size <= _QUANT_BLOCK:
        q = _quantize_block(x, scale, bits, np.empty(np.broadcast_shapes(x.shape,
                                                                         np.shape(scale))))
        return q if q.ndim else q[()]
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for i in range(0, x.size, _QUANT_BLOCK):
        _quantize_block(flat_x[i:i + _QUANT_BLOCK], scale, bits, flat_out[i:i + _QUANT_BLOCK])
    return out


def _quantize_block(x, scale, bits, q):
    """quantize_values of `x` into the float64 buffer `q`, in place.

    Rounding half away from zero is symmetric, so y + copysign(0.5, y) is
    exactly +-(|y| + 0.5) and its truncation equals copysign(floor(|y| + 0.5), y)
    for every float64 y, signed zeros, infinities and NaN included.
    """
    np.divide(x, scale, out=q, dtype=np.float64)
    q += np.copysign(0.5, q)
    np.trunc(q, out=q)
    np.minimum(q, 2 ** (bits - 1) - 1, out=q)
    return np.maximum(q, -(2 ** (bits - 1)), out=q)


def check_bits(what, bits):
    """Reject a weight or activation bit width outside the supported [2, 16]."""
    if not 2 <= bits <= 16:
        raise ValueError(f"{what} {bits} outside [2, 16]")


def init_scale(values, bits):
    """Initial scale covering the largest magnitude; 1.0 for all-zero groups."""
    m = float(np.max(np.abs(values))) if np.size(values) else 0.0
    if m == 0.0:
        return 1.0
    return m / float(2 ** (bits - 1))


@dataclass(frozen=True)
class GranularityConfig:
    """How weights share scales: whole layer, per channel, or tile grids.

    method1 fixes the tile shape (rows_per_group x cols_per_group) for every
    layer; method2 fixes the horizontal group count and derives a per-layer
    column width ceil(J / h_groups).
    """

    mode: str
    rows_per_group: int = 1
    cols_per_group: int | None = None
    h_groups: int | None = None

    def __post_init__(self):
        if self.mode not in GRANULARITY_MODES:
            raise ValueError(f"unknown granularity mode {self.mode!r}")
        if self.mode == "method1":
            if not self.rows_per_group or self.rows_per_group < 1:
                raise ValueError("method1 requires rows_per_group >= 1")
            if not self.cols_per_group or self.cols_per_group < 1:
                raise ValueError("method1 requires cols_per_group >= 1")
        if self.mode == "method2":
            if not self.rows_per_group or self.rows_per_group < 1:
                raise ValueError("method2 requires rows_per_group >= 1")
            if not self.h_groups or self.h_groups < 1:
                raise ValueError("method2 requires h_groups >= 1")

    def describe(self):
        if self.mode == "method1":
            return f"method1(rows={self.rows_per_group}, cols={self.cols_per_group})"
        if self.mode == "method2":
            return f"method2(rows={self.rows_per_group}, h={self.h_groups})"
        return self.mode


@dataclass(frozen=True)
class SubMatrixPartition:
    """Contiguous tiling of an [OC, J] matrix into scale groups."""

    out_channels: int
    weights_per_channel: int
    rows_per_group: int
    cols_per_group: int
    row_ranges: tuple
    col_ranges: tuple

    @property
    def v_groups(self):
        return len(self.row_ranges)

    @property
    def h_groups(self):
        return len(self.col_ranges)


def _ranges(total, group):
    return tuple((s, min(s + group, total)) for s in range(0, total, group))


def make_partition(out_channels, weights_per_channel, config):
    """Tile an [OC, J] matrix per the granularity config.

    Group sizes larger than the axis are clamped to a single group on that
    axis; a non-dividing group size leaves a smaller trailing group.
    """
    oc, j = int(out_channels), int(weights_per_channel)
    if oc < 1 or j < 1:
        raise ValueError(f"matrix dims must be positive, got {oc}x{j}")
    if config.mode == "layerwise":
        rows, cols = oc, j
    elif config.mode == "channelwise":
        rows, cols = 1, j
    elif config.mode == "method1":
        rows, cols = config.rows_per_group, config.cols_per_group
    else:  # method2
        rows, cols = config.rows_per_group, math.ceil(j / config.h_groups)
    rows = min(rows, oc)
    cols = min(cols, j)
    return SubMatrixPartition(
        out_channels=oc,
        weights_per_channel=j,
        rows_per_group=rows,
        cols_per_group=cols,
        row_ranges=_ranges(oc, rows),
        col_ranges=_ranges(j, cols),
    )


@dataclass
class ScaleSet:
    """Calibrated scales of one layer: a v_groups x h_groups grid, one weight
    scale per tile of its partition, plus the single input scale. One that does
    not fit its tiles (finite positive scales, grid shape, the 2^53 bound)
    cannot be built."""

    partition: SubMatrixPartition
    weight_scales: np.ndarray
    input_scale: float
    weight_bits: int = 4
    act_bits: int = 8

    def __post_init__(self):
        w = self.weight_scales = np.asarray(self.weight_scales, dtype=np.float64)
        # min and max propagate NaN, which fails every comparison
        if not ((w.size == 0 or 0 < w.min() <= w.max() < np.inf)
                and 0 < self.input_scale < np.inf):
            raise ValueError("all scales must be finite and strictly positive")
        p = self.partition
        if w.shape != (p.v_groups, p.h_groups):
            raise ValueError(
                f"scale grid {w.shape} does not match the "
                f"{p.v_groups}x{p.h_groups} partition of its "
                f"{p.out_channels}x{p.weights_per_channel} weights into "
                f"{p.rows_per_group}x{p.cols_per_group} groups")
        check_exact_accumulation(p, self.weight_bits, self.act_bits)


def check_exact_accumulation(partition, weight_bits, act_bits):
    width = max(c1 - c0 for c0, c1 in partition.col_ranges)
    worst = width * (2 ** (weight_bits - 1)) * (2 ** (act_bits - 1))
    if worst > _EXACT_ACC_LIMIT:
        raise ValueError(
            f"integer accumulation would exceed the exact float64 range "
            f"(group width {width}, bits {weight_bits}/{act_bits})"
        )


def _row_values(partition, group_values):
    """Expand one value per row group to one value per output channel."""
    counts = [r1 - r0 for r0, r1 in partition.row_ranges]
    return np.repeat(group_values, counts)[:, None]


def quantize_weight_groups(weights, partition, weight_scales, weight_bits):
    """Integer weight codes, one [OC, width] matrix per column group h.

    Row group v of matrix h holds the codes of group (v, h) under its own
    scale weight_scales[v, h].
    """
    weights = np.asarray(weights)
    if weights.shape != (partition.out_channels, partition.weights_per_channel):
        raise ValueError(f"weights {weights.shape} do not match partition "
                         f"{partition.out_channels}x{partition.weights_per_channel}")
    return [quantize_values(weights[:, c0:c1],
                            _row_values(partition, weight_scales[:, h]), weight_bits)
            for h, (c0, c1) in enumerate(partition.col_ranges)]


def grouped_terms(codes, q_cols, partition, weight_scales, input_scale):
    """Yield each column group's rescaled integer partial product.

    Term h is (codes[h] @ q_cols[c0:c1]) times the per-row vector
    weight_scales[v, h] * input_scale, a fresh [OC, P] float64 array: the
    #H rescales of a sub-layerwise layer. The matmul is exact while
    check_exact_accumulation holds.
    """
    if q_cols.shape[0] != partition.weights_per_channel:
        raise ValueError(f"input rows {q_cols.shape[0]} != weights per channel "
                         f"{partition.weights_per_channel}")
    for h, (c0, c1) in enumerate(partition.col_ranges):
        term = codes[h] @ q_cols[c0:c1]
        term *= _row_values(partition, weight_scales[:, h] * input_scale)
        yield term


def sum_terms(terms):
    """Sum a layer's terms, a list or an iterator, in ascending h into a new
    array; no term is changed.

    The first term may be a stack of candidate terms that the others
    broadcast into. Every quantized layer output is finish(sum_terms(...)),
    which keeps batched calibration results equal to a fresh forward bit
    for bit.
    """
    terms = iter(terms)
    acc = next(terms)
    second = next(terms, None)
    if second is None:
        return acc.copy()
    acc = acc + second
    del second  # so each term a generator yields is freed once it is added
    for term in terms:
        acc += term
    return acc


def grouped_forward(codes, q_cols, scales, bias=None, activation="identity", slope=0.01):
    """finish(sum_terms(grouped_terms(...))): the grouped terms summed in
    ascending h, then bias and activation."""
    return finish(sum_terms(grouped_terms(codes, q_cols, scales.partition,
                                          scales.weight_scales, scales.input_scale)),
                  bias, activation, slope)


def quantized_layer(weights, scales, bias=None, activation="identity", slope=0.01, *,
                    lower):
    """The grouped integer conv of one layer as a function run(x,
    sample_columns) of its incoming activation: quantize every group (v, h)
    under its scale, run one integer matmul per column group, rescale each
    row group by its group scale times the input scale, and sum over h; bias
    and activation are applied on the rescaled result.

    The weights are checked against the scale set's partition and the
    weight codes are made once, here, for every batch the layer runs.
    `x` is a batch of samples that lower(x) turns into the lowered [J, P]
    input, `sample_columns` columns per sample. The activation is quantized
    before it is lowered: quantization is elementwise and lowering only
    copies elements and pads with +0.0, whose code is +0.0, so the codes are
    the same bit for bit while a K*K conv quantizes each input element once
    instead of K*K times.

    Each batch runs in sample blocks (in_sample_blocks). Any blocking gives
    the whole-matrix output bit for bit: the integer matmuls are exact and
    every later float64 op (rescale, ascending-h sum, bias, activation) is
    per column.
    """
    codes = quantize_weight_groups(weights, scales.partition, scales.weight_scales,
                                   scales.weight_bits)
    sample_size = np.shape(weights)[1]

    def conv(block):
        q_cols = lower(quantize_values(block, scales.input_scale, scales.act_bits))
        return grouped_forward(codes, q_cols, scales, bias, activation, slope)

    def run(x, sample_columns):
        return in_sample_blocks(conv, x, sample_size * sample_columns)
    return run
