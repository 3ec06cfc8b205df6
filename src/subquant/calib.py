"""Layer-by-layer post-training calibration of quantization scales.

Per quantized layer the pipeline runs four steps: (1) enumerative search of
the input scale with float weights, (2) iterative greedy grid search of the
per-group weight scales with the input scale fixed, (3) a second input-scale
search with the weight scales fixed, (4) the winning step-3 candidate's output
propagates to downstream layers. Targets are always the float reference
activations, while layer inputs come from the already-quantized prefix of
the network, so quantization error accumulates forward.
"""

import weakref
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import BadInputError
from .model import ModelGraph, execute, float_conv, lower_layer_input
from .quant import (
    GranularityConfig,
    ScaleSet,
    check_exact_accumulation,
    grouped_terms,
    init_scale,
    make_partition,
    quantize_values,
    quantize_weight_groups,
    quantized_layer,
    sum_terms,
)
from .tensor import conv_reference, finish

DISTANCE_METRICS = ("euclidean", "cosine")

# The weight search builds candidate row blocks in chunks of at most this many
# bytes per [candidates, rows, P] float64 array.
_CHUNK_BYTES = 256 * 1024

# StreamingDistance sums its float64 terms through _PairwiseSum, one np.sum
# per leaf of at most _SUM_LEAF terms (64 KB), the most that it holds back
# between two runs.
_SUM_LEAF = 1 << 13

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
        for name in ("alpha", "beta"):  # a float or an int that fits a finite float64
            value = getattr(self, name)
            if not abs(value) <= float(np.finfo(np.float64).max):
                raise ValueError(f"{name} must be finite, got {value}")
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
    """n candidates evenly spaced over [alpha*center, beta*center], less those
    that underflow to 0 under a tiny alpha: a scale must be positive, and
    finite, so a beta*center that overflows is bad input."""
    if center <= 0:
        raise ValueError(f"center scale must be positive, got {center}")
    if beta * float(center) == np.inf:
        raise BadInputError(f"calib.beta {beta} times the center scale {center} "
                            f"overflows float64")
    grid = np.linspace(alpha * center, beta * center, n, dtype=np.float64)
    return grid[grid > 0]


def _with_center(grid, center):
    """np.unique(np.append(grid, center)) of a scale_space grid: its values
    and the center, each once, ascending. The sort and the mask of equal
    neighbours are what np.unique does to a float64 array, without the
    numpy.ma import that its first call makes."""
    merged = np.sort(np.append(grid, center))
    return merged[np.append(True, merged[1:] != merged[:-1])]


def _pairwise_half(n):
    """Where np.sum splits n > 128 float64 terms: its pairwise summation adds
    the sum of the first n//2 - (n//2) % 8 terms to the sum of the rest."""
    half = n // 2
    return half - half % 8


def _pairwise_tree(n):
    """np.sum's tree over n terms, split down to leaves of at most _SUM_LEAF
    terms: a generator that yields each leaf's size in order, is sent the
    leaf's sum, and returns the sum of all n terms, adding along the tree."""
    if n <= _SUM_LEAF:
        return (yield n)
    half = _pairwise_half(n)
    left = yield from _pairwise_tree(half)
    right = yield from _pairwise_tree(n - half)
    return left + right


class _PairwiseSum:
    """np.sum of n float64 terms that arrive in consecutive runs, bit for bit.

    numpy sums a contiguous float64 array pairwise: it splits more than 128
    terms in two (_pairwise_half) and adds the two halves' sums, down to
    blocks that it sums in an 8-way unrolled loop. The split depends on the
    count alone, so every node of that tree is np.sum of its own terms:
    np.sum of each leaf of at most _SUM_LEAF terms, added along the tree
    (_pairwise_tree), is np.sum of all n. A leaf that spans two runs is
    gathered in a buffer of its own size, dropped once the leaf is summed,
    so at most one leaf's terms are held back, and only while it is open.
    """

    def __init__(self, n):
        self.n = n
        self._tree = _pairwise_tree(n)
        self._size = next(self._tree)  # of the current leaf
        self._total = None
        self._buffer = None
        self._filled = 0
        if n == 0:
            self._leaf_done(np.float64(0.0))  # np.sum of no terms

    def _leaf_done(self, leaf_sum):
        try:
            self._size = self._tree.send(leaf_sum)
        except StopIteration as done:
            self._total = done.value

    def add(self, terms):
        """The next run of terms, a contiguous 1-D float64 array."""
        start = 0
        while start < len(terms):
            if self._total is not None:
                raise ValueError(f"more than {self.n} terms")
            size = self._size
            take = min(size - self._filled, len(terms) - start)
            run = terms[start:start + take]
            start += take
            if take == size:  # a whole leaf in this run
                self._leaf_done(np.sum(run))
                continue
            if self._buffer is None:
                self._buffer = np.empty(size)
            self._buffer[self._filled:self._filled + take] = run
            self._filled += take
            if self._filled == size:
                leaf, self._buffer, self._filled = self._buffer, None, 0
                self._leaf_done(np.sum(leaf))

    def total(self):
        """np.sum of the n terms, once all of them have arrived."""
        if self._total is None:
            raise ValueError(f"fewer than {self.n} terms")
        return self._total


def _distance_terms(a, b, metric):
    """The float64 terms distance() sums over a and b, each flat in C order:
    (a - b)**2 for euclidean; a*b, a*a and b*b for cosine. They are yielded
    one at a time in place over float64 copies of a and b (two buffers, as
    many as BLAS dot and norm needed), so each must be summed before the next
    is asked for."""
    if metric == "euclidean":
        # one C-ordered float64 difference, squared in place
        d = np.subtract(a, b, dtype=np.float64, order="C").reshape(-1)
        yield np.multiply(d, d, out=d)
        return
    x = np.array(a, dtype=np.float64, order="C")
    y = np.array(b, dtype=np.float64, order="C").reshape(-1)
    flat = x.reshape(-1)
    yield np.multiply(flat, y, out=flat)
    np.copyto(x, a)
    yield np.multiply(flat, flat, out=flat)
    yield np.multiply(y, y, out=y)


class StreamingDistance:
    """distance(a, b, metric) of two arrays of `size` elements each that
    arrive in pieces, such as a layer's outputs one chunk of samples at a
    time; the value is distance() of the whole arrays bit for bit.

    The pieces follow each other in C order, as add(a[i:j], b[i:j]) does for
    consecutive chunks of the first axis. The terms of each piece are made
    whole and summed in float64 in np.sum's pairwise order (_PairwiseSum),
    so no float64 copy of more than one piece is made, whatever the size.
    """

    def __init__(self, size, metric="euclidean"):
        if metric not in DISTANCE_METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self._sums = [_PairwiseSum(size) for _ in range(1 if metric == "euclidean" else 3)]

    def add(self, a, b):
        """The next pieces of both arrays, of one shape."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
        for acc, terms in zip(self._sums, _distance_terms(a, b, self.metric)):
            acc.add(terms)

    def value(self):
        return _distance_value(self.metric, [acc.total() for acc in self._sums])


def _distance_value(metric, totals):
    """The distance from the sums of its terms (_distance_terms)."""
    if metric == "euclidean":
        return float(np.sqrt(totals[0]))
    sxy, sxx, syy = totals
    nx, ny = np.sqrt(sxx), np.sqrt(syy)
    if nx == 0.0 and ny == 0.0:
        return 0.0
    if nx == 0.0 or ny == 0.0:
        return 1.0
    return float(1.0 - sxy / (nx * ny))


def distance(a, b, metric="euclidean"):
    """Quantization error between tensors of identical shape: one np.sum per
    term (_distance_terms), the value StreamingDistance gives in pieces.
    np.add.reduce is np.sum of a 1-D array without np.sum's Python wrapper,
    which calibration would pay on each of its thousands of calls."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if metric not in DISTANCE_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    return _distance_value(metric, [np.add.reduce(t) for t in _distance_terms(a, b, metric)])


def subsample(samples, count, seed):
    """Deterministically pick `count` samples (original order preserved)."""
    n = samples.shape[0]
    if n <= count:
        return samples
    idx = np.sort(np.random.default_rng(seed).permutation(n)[:count])
    return samples[idx]


@dataclass(frozen=True)
class LoweredInput:
    """A lowered [J, P] layer input held as source values and a gather index.

    `values` holds, in float64, every activation element the lowering reads,
    once each, plus +0.0 if it reads padding; np.take(values, index) is the
    lowered matrix. Quantizing and scaling act on each element alone and a
    lowering only copies elements and pads with +0.0, so take(f(values),
    index) equals f(lowered matrix) bit for bit, while a K*K conv runs f on
    each element once instead of up to K*K times.
    """

    values: np.ndarray
    index: np.ndarray

    @property
    def shape(self):
        return self.index.shape

    def gather(self, values, out=None):
        """np.take(values, index): the lowered matrix of per-element `values`,
        into `out` if given. The index is always in range, so mode "wrap"
        skips the bounds check and gives the same values."""
        return np.take(values, self.index, out=out, mode="wrap")


def plan_layer_input(layer, x):
    """The LoweredInput of lower_layer_input(layer, x).

    Element i of x is named i + 1 and padding 0; lowering those names gives
    the index, which is then renumbered over the names it holds, so the
    values are exactly the entries of the lowered matrix.
    """
    x = np.asarray(x)
    names = np.arange(1, x.size + 1, dtype=np.float64).reshape(x.shape)
    index = lower_layer_input(layer, names).astype(np.intp)
    read = np.zeros(x.size + 1, dtype=bool)
    read[index] = True
    values = np.concatenate(([0.0], x.reshape(-1)))[read]
    return LoweredInput(values, (np.cumsum(read) - 1)[index])


def search_input_scale(weights, cols, target, cfg, scales=None, bias=None,
                       activation="identity", slope=0.01, center_result=None):
    """Enumerate input-scale candidates and keep the one closest to target.

    `cols` is the LoweredInput of the layer; each candidate quantizes its
    values once and gathers the lowered codes into one buffer.
    With `scales` given, a ScaleSet whose input scale is the grid center,
    each candidate runs the forward's conv (quant.quantized_layer) under
    that input scale; its weight codes are made once. Otherwise weights
    stay in float and the center is the input's init scale. The center is
    always part of the comparison set, like the evaluated incumbent of the
    weight search, so a scale that is already exact is never displaced.
    `center_result`, when given, is the center's (distance, output), known
    to the caller, and is used in the center's place in the comparison
    instead of evaluating it again. Ties go to the smaller scale. Returns
    the winning scale, its distance and its output. An output that overflows
    float32 scores inf or NaN, and never wins; if none wins, that is bad input.
    """
    if cols.shape[1] == 0:
        raise ValueError("empty calibration set")
    lowered = np.empty(cols.shape)  # each candidate's lowered input, in turn
    if scales is None:
        center = init_scale(cols.values, cfg.act_bits)

        def conv(values, cand):
            q = quantize_values(values, cand, cfg.act_bits)
            q *= cand
            return conv_reference(weights, cols.gather(q, lowered), activation, bias, slope)
    else:
        center = scales.input_scale
        conv = quantized_layer(weights, scales, bias, activation, slope,
                               lower=partial(cols.gather, out=lowered))
    # ascending; strict < keeps the smallest tie
    candidates = _with_center(scale_space(cfg.alpha, cfg.beta, center, cfg.grid_size), center)
    best_scale, best_d, best_out = None, np.inf, None
    for cand in candidates:
        cand = float(cand)
        if cand == center and center_result is not None:
            d, out = center_result
        else:
            out = conv(cols.values, cand)
            d = distance(out, target, cfg.metric)
        if d < best_d:
            best_scale, best_d, best_out = cand, d, out
    if best_scale is None:
        raise BadInputError("no input-scale candidate gives a finite float32 output")
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
        if self.metric == "euclidean":
            d = np.subtract(block, target_rows, dtype=np.float64)
            return (np.sum(np.multiply(d, d, out=d), axis=-1),)
        x = block.astype(np.float64)
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


def _candidate_blocks(group, col_block, others, input_scale, bias_rows, cfg,
                      activation, slope, cands):
    """Terms and finished row blocks of a row block's group h under each of `cands`.

    One stacked matmul serves every candidate, exact like the forward's.
    The candidate terms take the place of term h in sum_terms: `others` are
    the sum of the row block's terms before h, if h > 0, and then the terms
    after it. The stack goes first, so that the others broadcast into it;
    IEEE addition commutes exactly, so the sum is the forward's bit for bit.
    """
    codes = quantize_values(group[None], cands[:, None, None], cfg.weight_bits)
    n, rows, width = codes.shape
    terms = (codes.reshape(n * rows, width) @ col_block).reshape(n, rows, -1)
    terms *= (cands * input_scale)[:, None, None]
    return terms, finish(sum_terms([terms, *others]), bias_rows, activation, slope)


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
    place of the group's term in sum_terms, and finish ends the sum as it
    ends the forward's, so every candidate row block equals a fresh forward
    bit for bit. Each block is first screened with running per-row sums in
    O(rows*P) (see _Screen). Only the candidates
    within the summation-error tolerance of the screened minimum are
    confirmed with `distance()` on the full layer output, in candidate order
    with strict `<` from the exact entry distance; every other candidate is
    provably farther than the screened best, so the choice equals that of
    scoring every candidate with `distance()`.
    `cols` is the LoweredInput of the layer; its codes are gathered once.
    Returns the scale grid, the distance trace (initial value plus one
    entry per sweep) and the float32 [OC, P] layer output under the returned
    scales, the grouped forward's bit for bit; trace[-1] is its distance.
    """
    p = cols.shape[1]
    check_exact_accumulation(partition, cfg.weight_bits, cfg.act_bits)
    q_cols = cols.gather(quantize_values(cols.values, input_scale, cfg.act_bits))
    scales = np.array([[init_scale(weights[r0:r1, c0:c1], cfg.weight_bits)
                        for c0, c1 in partition.col_ranges]
                       for r0, r1 in partition.row_ranges])
    codes = quantize_weight_groups(weights, partition, scales, cfg.weight_bits)
    terms = list(grouped_terms(codes, q_cols, partition, scales, input_scale))
    out = finish(sum_terms(terms), bias, activation, slope)
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
                row_terms = [term[r0:r1] for term in terms]
                others = ([sum_terms(row_terms[:h])] if h else []) + row_terms[h + 1:]
                build = partial(_candidate_blocks, group, q_cols[c0:c1], others,
                                input_scale, bias_rows, cfg, activation, slope)

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
        trace.append(d_entry)
    return scales, trace, out


@dataclass
class LayerCalibration:
    """Result of the four-step procedure for one layer."""

    scales: ScaleSet
    output: np.ndarray


def calibrate_layer(weights, cols, target, granularity, cfg, bias=None,
                    activation="identity", slope=0.01):
    """Run the four calibration steps on one layer, whose lowered input `cols`
    is a LoweredInput.

    Step 3's center candidate, the step-1 input scale, is not evaluated
    again: its output and distance are those the weight search ends with.
    Step 4 is no extra forward: the output is that of the winning step-3
    candidate, made by the forward's own conv (quant.quantized_layer) under
    the final scales, or, if the center wins, the weight search's output,
    which equals it bit for bit.
    """
    oc, j = weights.shape
    partition = make_partition(oc, j, granularity)
    input_scale, _, _ = search_input_scale(weights, cols, target, cfg, bias=bias,
                                           activation=activation, slope=slope)
    weight_scales, trace, searched = search_weight_scales(
        weights, cols, partition, input_scale, target, cfg, bias, activation, slope)
    scales = ScaleSet(partition, weight_scales, input_scale, cfg.weight_bits, cfg.act_bits)
    input_scale, _, output = search_input_scale(
        weights, cols, target, cfg, scales, bias, activation, slope,
        center_result=(trace[-1], searched))
    return LayerCalibration(replace(scales, input_scale=input_scale), output)


@dataclass
class NetworkCalibration:
    """Per-layer ScaleSets and measures from calibrating a run of layers."""

    scales: dict
    layer_distances: dict

    def mean_quantized_distance(self):
        keys = list(self.scales)
        return float(np.mean([self.layer_distances[k] for k in keys])) if keys else 0.0


def checked_walk(layers, feeds, conv_op, which):
    """execute(layers, feeds, conv_op), each step run with overflow warnings
    silenced. Bad input raised in a step is named by its layer, and an inf
    or NaN output is bad input too, at the first layer that makes one;
    `which` ("float" or "quantized") names the forward. A calibration
    candidate that overflows holds inf and loses inside its step."""
    walk = execute(layers, feeds, conv_op)
    for layer in layers:  # execute yields one step per layer, in order
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                _, out = next(walk)
            except BadInputError as exc:
                raise BadInputError(f"layer {layer.id}: {exc}") from exc
        if not np.all(np.isfinite(out)):
            raise BadInputError(f"the {which} forward of the samples is not finite at "
                                f"layer {layer.id}: the samples are too large")
        yield layer, out


class Lockstep:
    """The float walk of `layers`, one layer ahead of a second walk, each a
    checked_walk. While the second walk runs a conv or linear layer, `ref`
    is the float [OC, P] output just made for it, and float_conv(layer, x)
    returns `ref` itself when `x` is the very array, held weakly, that the
    float conv read (an unquantized first conv, on the samples); otherwise
    it runs float_conv."""

    def __init__(self, layers):
        self.layers = layers
        self.ref = self._read = None  # _read: a weakref to what the float conv read

    def _float_op(self, layer, x):
        self.ref, self._read = float_conv(layer, x), weakref.ref(x)
        return self.ref

    def float_conv(self, layer, x):
        return self.ref if self._read() is x else float_conv(layer, x)

    def walk(self, feeds, conv_op):
        """(layer, out, ref) for each layer in turn: out from the quantized
        walk of `feeds` through conv_op, ref from the float walk, each step
        of the float walk run before that of the other."""
        second = checked_walk(self.layers, feeds, conv_op, "quantized")
        for layer, ref in checked_walk(self.layers, feeds, self._float_op, "float"):
            _, out = next(second)
            yield layer, out, ref


def calibrate_network(layers, feeds, granularity, cfg, measure=None):
    """Calibrate `layers` on `feeds`, each subsampled to cfg.samples and cast
    to float32: the NetworkCalibration of each quantized layer's ScaleSet and
    each layer's measure(layer, out, ref), by default the cfg.metric distance.

    The calibrating walk is a Lockstep's second walk: each quantized layer is
    calibrated (calibrate_layer) on its LoweredInput, from the quantized
    prefix, against its float output `ref`; a layer with quantize false runs
    in float. No step is held once measured, so a float output is dropped
    then, unless a later float layer reads it. A ModelGraph and its samples,
    as perfbench/roadmap_table.py passes them, stand for its layers and feeds.
    """
    if isinstance(layers, ModelGraph):
        layers, feeds = layers.layers, {layers.input_id: feeds}
    feeds = {lid: subsample(np.asarray(x, dtype=np.float32), cfg.samples, cfg.seed)
             for lid, x in feeds.items()}
    measure = measure or (lambda layer, out, ref: distance(out, ref, cfg.metric))
    pair, scales = Lockstep(layers), {}

    def conv_op(layer, x):
        if not layer.quantize:
            return pair.float_conv(layer, x)
        cal = calibrate_layer(layer.weight_matrix(), plan_layer_input(layer, x), pair.ref,
                              granularity, cfg, layer.bias, layer.activation, layer.slope)
        scales[layer.id] = cal.scales
        return cal.output

    measured = map(lambda step: (step[0].id, measure(*step)), pair.walk(feeds, conv_op))
    return NetworkCalibration(scales, dict(measured))
