"""Layer-by-layer post-training calibration of quantization scales.

Per quantized layer the pipeline runs four steps: (1) enumerative search of
the input scale with float weights, (2) iterative greedy grid search of the
per-group weight scales with the input scale fixed, (3) a second input-scale
search with the weight scales fixed, (4) the winning step-3 candidate's output
propagates to downstream layers. Targets are always the float reference
activations, while layer inputs come from the already-quantized prefix of
the network, so quantization error accumulates forward.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .model import (
    QuantizedLayerInfo,
    execute,
    float_conv,
    forward_float,
    lower_layer_input,
    reference_target,
)
from .quant import (
    GranularityConfig,
    ScaleSet,
    check_exact_accumulation,
    check_layer_scales,
    finish_rows,
    grouped_forward,
    grouped_terms,
    init_scale,
    make_partition,
    quantize_values,
    quantize_weight_groups,
    sum_terms,
)
from .tensor import conv_reference

DISTANCE_METRICS = ("euclidean", "cosine")

# The weight search builds candidate row blocks in chunks of at most this many
# bytes per [candidates, rows, P] float64 array.
_CHUNK_BYTES = 256 * 1024

# A screened distance and distance() both stay within N*eps of the exact
# value (N = OC*P); a candidate is confirmed if it lies within this many
# N*eps of the screened minimum, which covers both errors with a wide margin.
_SCREEN_SLACK = 16


@dataclass(frozen=True)
class CalibConfig:
    """Search hyperparameters; defaults follow the standard recipe."""

    alpha: float = 0.5
    beta: float = 1.5
    grid_size: int = 100
    iterations: int = 2
    metric: str = "euclidean"
    samples: int = 128
    seed: int = 0
    weight_bits: int = 4
    act_bits: int = 8

    def __post_init__(self):
        if not 0 < self.alpha <= 1 <= self.beta:
            raise ValueError(f"need 0 < alpha <= 1 <= beta, got ({self.alpha}, {self.beta})")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.metric not in DISTANCE_METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


def scale_space(alpha, beta, center, n):
    """n candidates evenly spaced over [alpha*center, beta*center].

    A singleton space (n=1) degenerates to the center itself.
    """
    if center <= 0:
        raise ValueError(f"center scale must be positive, got {center}")
    if n == 1:
        return np.array([center], dtype=np.float64)
    return np.linspace(alpha * center, beta * center, n, dtype=np.float64)


def distance(a, b, metric="euclidean"):
    """Quantization error between tensors of identical shape."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    x = a.reshape(-1).astype(np.float64)
    y = b.reshape(-1).astype(np.float64)
    if metric == "euclidean":
        return float(np.sqrt(np.sum((x - y) ** 2)))
    if metric == "cosine":
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx == 0.0 and ny == 0.0:
            return 0.0
        if nx == 0.0 or ny == 0.0:
            return 1.0
        return float(1.0 - np.dot(x, y) / (nx * ny))
    raise ValueError(f"unknown metric {metric!r}")


def subsample(samples, count, seed):
    """Deterministically pick `count` samples (original order preserved)."""
    n = samples.shape[0]
    if n <= count:
        return samples
    idx = np.sort(np.random.default_rng(seed).permutation(n)[:count])
    return samples[idx]


def search_input_scale(weights, cols, target, cfg, partition=None, weight_scales=None,
                       center=None, bias=None, activation="identity", slope=0.01):
    """Enumerate input-scale candidates and keep the one closest to target.

    With `weight_scales` given, candidates are evaluated through the grouped
    integer path; the weight codes are made once and only `cols` is
    re-quantized per candidate. Otherwise weights stay in float. The grid
    center is always part of the comparison set, like the evaluated
    incumbent of the weight search, so a scale that is already exact is
    never displaced. Ties go to the smaller scale. Returns the winning
    scale, its distance and its output.
    """
    if cols.shape[1] == 0:
        raise ValueError("empty calibration set")
    if center is None:
        center = init_scale(cols, cfg.act_bits)
    candidates = scale_space(cfg.alpha, cfg.beta, center, cfg.grid_size)
    # ascending; strict < keeps the smallest tie
    candidates = np.unique(np.append(candidates, center))
    if weight_scales is not None:
        scales = ScaleSet(weight_scales, center, cfg.weight_bits, cfg.act_bits)
        check_layer_scales(weights, cols, partition, scales)
        codes = quantize_weight_groups(weights, partition, scales.weight_scales,
                                       cfg.weight_bits)
    best_scale, best_d, best_out = None, np.inf, None
    for cand in candidates:
        cand = float(cand)
        if weight_scales is None:
            deq = cand * quantize_values(cols, cand, cfg.act_bits)
            out = conv_reference(weights, deq, activation, bias, slope)
        else:
            scales = ScaleSet(weight_scales, cand, cfg.weight_bits, cfg.act_bits)
            out = grouped_forward(codes, quantize_values(cols, cand, cfg.act_bits),
                                  partition, scales, bias, activation, slope)
        d = distance(out, target, cfg.metric)
        if d < best_d:
            best_scale, best_d, best_out = cand, d, out
    return best_scale, best_d, best_out


class _Screen:
    """Running per-row sums that score a candidate row block in O(rows*P).

    A screened value adds the same float64 terms as `distance` (squared
    differences for euclidean; products and squares for cosine), only in
    another order, so it stays within a summation-error bound of the exact
    value: relative N*eps on the sum of squares, absolute N*eps on the
    cosine distance because |sum(x*y)| <= |x||y|.
    """

    def __init__(self, out, target, metric):
        self.metric = metric
        self.target = np.asarray(target, dtype=np.float64)
        self.target_norm = np.linalg.norm(self.target.reshape(-1))
        self.rows = self.row_sums(out, self.target)
        self.tol = _SCREEN_SLACK * out.size * np.finfo(np.float64).eps

    def row_sums(self, block, target_rows):
        """Per-row sums of `block` ([..., rows, P]): (squared error,) or (dot, norm^2)."""
        x = block.astype(np.float64)
        if self.metric == "euclidean":
            return (np.sum((x - target_rows) ** 2, axis=-1),)
        return np.sum(x * target_rows, axis=-1), np.sum(x * x, axis=-1)

    def update(self, r0, r1, rows_out):
        for acc, new in zip(self.rows, self.row_sums(rows_out, self.target[r0:r1])):
            acc[r0:r1] = new

    def score(self, r0, r1, blocks):
        """Screened value per candidate block; NaN where only distance() can decide."""
        sums = [np.sum(acc[:r0]) + np.sum(acc[r1:]) + np.sum(new, axis=-1)
                for acc, new in zip(self.rows, self.row_sums(blocks, self.target[r0:r1]))]
        if self.metric == "euclidean":
            return sums[0]
        dot, sq = sums
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = 1.0 - dot / (np.sqrt(sq) * self.target_norm)
        scores[(sq == 0.0) | (self.target_norm == 0.0)] = np.nan
        return scores

    def contenders(self, scores):
        """Mask of the candidates that could still hold the smallest distance.

        A candidate is dropped only if its screened value lies beyond the
        tolerance above the screened minimum; then the candidate holding
        that minimum is strictly closer under `distance()` as well.
        Non-finite screens always stay.
        """
        finite = np.isfinite(scores)
        best = scores[finite].min(initial=np.inf)
        limit = best * (1.0 + self.tol) if self.metric == "euclidean" else best + self.tol
        return ~finite | (scores <= limit)


def _candidate_blocks(group, col_block, row_terms, h, input_scale, bias_rows, cfg,
                      activation, slope, cands):
    """Terms and finished row blocks of a row block's group h under each of `cands`.

    One stacked matmul serves every candidate, exact like the forward's.
    The candidate terms replace term h of the row block's terms in sum_terms.
    """
    codes = quantize_values(group[None], cands[:, None, None], cfg.weight_bits)
    n, rows, width = codes.shape
    terms = (codes.reshape(n * rows, width) @ col_block).reshape(n, rows, -1)
    terms *= (cands * input_scale)[:, None, None]
    acc = sum_terms(row_terms[:h] + [terms] + row_terms[h + 1:])
    return terms, finish_rows(acc, bias_rows, activation, slope)


def _chunks(items, size):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def search_weight_scales(weights, cols, partition, input_scale, target, cfg,
                         bias=None, activation="identity", slope=0.01):
    """Greedy iterative grid search of the per-group weight scales.

    Every group scale starts at its covering initialization. Sweeps visit
    groups in row-major (v, h) order; for each group a candidate grid is
    generated from the scale held at group entry and a candidate is committed
    only on strict improvement of the full-layer output distance, all other
    scales fixed; among equal distances the earliest candidate wins.

    The state is the layer's grouped terms (quant.grouped_terms). A chunk of
    candidates costs one stacked integer matmul, and its terms take the
    place of the group's term in sum_terms, so every candidate row block
    equals a fresh forward bit for bit. Each block is first screened with
    running per-row sums in O(rows*P) (see _Screen). Only the candidates
    within the summation-error tolerance of the screened minimum are
    confirmed with `distance()` on the full layer output, in candidate order
    with strict `<` from the exact entry distance; every other candidate is
    provably farther than the screened best, so the choice equals that of
    scoring every candidate with `distance()`.
    Returns the scale grid and the distance trace (initial value plus one
    entry per sweep).
    """
    p = cols.shape[1]
    check_exact_accumulation(partition, cfg.weight_bits, cfg.act_bits)
    q_cols = quantize_values(cols, input_scale, cfg.act_bits)
    scales = np.array([[init_scale(weights[r0:r1, c0:c1], cfg.weight_bits)
                        for c0, c1 in partition.col_ranges]
                       for r0, r1 in partition.row_ranges])
    codes = quantize_weight_groups(weights, partition, scales, cfg.weight_bits)
    terms = list(grouped_terms(codes, q_cols, partition, scales, input_scale))
    out = finish_rows(sum_terms(terms), bias, activation, slope)

    screen = _Screen(out, target, cfg.metric)
    d_entry = distance(out, target, cfg.metric)
    trace = [d_entry]
    for _ in range(cfg.iterations):
        for v, (r0, r1) in enumerate(partition.row_ranges):
            chunk = max(1, _CHUNK_BYTES // ((r1 - r0) * p * 8))
            bias_rows = None if bias is None else bias[r0:r1]
            for h, (c0, c1) in enumerate(partition.col_ranges):
                group = weights[r0:r1, c0:c1]
                if not np.any(group):
                    continue  # all-zero group: any scale is exact
                build = partial(_candidate_blocks, group, q_cols[c0:c1],
                                [term[r0:r1] for term in terms], h, input_scale,
                                bias_rows, cfg, activation, slope)

                cands = scale_space(cfg.alpha, cfg.beta, scales[v, h], cfg.grid_size)
                scores = np.concatenate([screen.score(r0, r1, build(part)[1])
                                         for part in _chunks(cands, chunk)])
                keep = np.flatnonzero(screen.contenders(scores))
                incumbent_rows = out[r0:r1].copy()
                best = None
                for part in _chunks(keep, chunk):
                    cand_terms, blocks = build(cands[part])
                    for i, c in enumerate(part):
                        out[r0:r1] = blocks[i]
                        d = distance(out, target, cfg.metric)
                        if d < d_entry:
                            d_entry = d
                            best = (float(cands[c]), cand_terms[i], blocks[i])
                if best is None:
                    out[r0:r1] = incumbent_rows
                else:
                    scales[v, h], terms[h][r0:r1], out[r0:r1] = best
                    screen.update(r0, r1, out[r0:r1])
        trace.append(distance(out, target, cfg.metric))
    return scales, trace


@dataclass
class LayerCalibration:
    """Result of the four-step procedure for one layer."""

    scales: ScaleSet
    partition: object
    output: np.ndarray
    distance: float
    step_distances: dict


def calibrate_layer(weights, cols, target, granularity, cfg, bias=None,
                    activation="identity", slope=0.01):
    """Run the four calibration steps on one lowered layer.

    Step 4 is no extra forward: the output is that of the winning step-3
    candidate, which ran the same codes under the final scales.
    """
    oc, j = weights.shape
    partition = make_partition(oc, j, granularity)
    input_scale, d1, _ = search_input_scale(weights, cols, target, cfg, bias=bias,
                                            activation=activation, slope=slope)
    weight_scales, trace = search_weight_scales(weights, cols, partition, input_scale,
                                                target, cfg, bias, activation, slope)
    input_scale, d3, output = search_input_scale(
        weights, cols, target, cfg, partition=partition, weight_scales=weight_scales,
        center=input_scale, bias=bias, activation=activation, slope=slope)
    scales = ScaleSet(weight_scales, input_scale, cfg.weight_bits, cfg.act_bits)
    steps = {"input_search": d1, "weight_search": trace[-1],
             "input_research": d3, "final": d3, "weight_trace": trace}
    return LayerCalibration(scales=scales, partition=partition, output=output,
                            distance=d3, step_distances=steps)


@dataclass
class NetworkCalibration:
    """Scales and distances from calibrating a whole graph."""

    scales: dict
    layer_distances: dict
    network_distance: float
    step_distances: dict = field(default_factory=dict)

    def mean_quantized_distance(self):
        keys = list(self.scales)
        return float(np.mean([self.layer_distances[k] for k in keys])) if keys else 0.0


def calibrate_network(graph, samples, granularity, cfg, references=None):
    """Calibrate every quantizable layer in topological order.

    One executor walk: each quantized layer is calibrated on its input from
    the already-quantized prefix against its float reference, and its
    quantized output feeds the layers after it. `references` may carry a
    precollected float forward map so that sweeps across granularities
    reuse one reference run.
    """
    samples = subsample(np.asarray(samples, dtype=np.float32), cfg.samples, cfg.seed)
    refs = forward_float(graph, samples) if references is None else references
    scales = {}
    step_distances = {}

    def conv_op(layer, x):
        if not layer.quantize:
            return float_conv(layer, x)
        target = reference_target(layer, refs[layer.id])
        cols, _ = lower_layer_input(layer, x)
        cal = calibrate_layer(layer.weight_matrix(), cols, target, granularity, cfg,
                              layer.bias, layer.activation, layer.slope)
        scales[layer.id] = QuantizedLayerInfo(
            cal.scales, cal.partition.rows_per_group, cal.partition.cols_per_group)
        step_distances[layer.id] = cal.step_distances
        return cal.output

    layer_distances = {
        layer.id: distance(out, refs[layer.id], cfg.metric)
        for layer, out in execute(graph.layers, {graph.input_id: samples}, conv_op)}
    return NetworkCalibration(scales=scales, layer_distances=layer_distances,
                              network_distance=layer_distances[graph.output_id],
                              step_distances=step_distances)
