"""Channel permutations and the evolutionary search for block reorderings.

A permutation maps new position -> old channel index. Joint reordering
applies the same permutation to a layer's output channels and the next
layer's input channels, which preserves the float network function, so a
residual block can be reshuffled without any runtime memory rearrangement.
Block boundaries stay fixed to keep the shortcut aligned.
"""

from dataclasses import dataclass, replace

import numpy as np

from .calib import CalibConfig, calibration_walk, distance
from .errors import BadInputError
from .model import reference_target, successors


@dataclass(frozen=True)
class ReorderConfig:
    population: int = 40
    iterations: int = 5
    max_pairs: int = 30
    selection: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.max_pairs < 1:
            raise ValueError("max_pairs must be >= 1")
        if not 0 < self.selection < 1:
            raise ValueError("selection must be in (0, 1)")
        if round(self.population * self.selection) >= self.population:
            raise ValueError(f"selection {self.selection} keeps all {self.population} "
                             f"individuals as parents, so no offspring are bred")


def identity_permutation(channels):
    return np.arange(channels, dtype=np.int64)


def is_permutation(perm):
    perm = np.asarray(perm)
    return perm.ndim == 1 and np.array_equal(np.sort(perm), np.arange(perm.size))


def mutate(perm, max_pairs, rng):
    """Swap up to max_pairs random channel pairs (at least one)."""
    out = np.array(perm, copy=True)
    if out.size < 2:
        return out
    swaps = int(rng.integers(1, max_pairs + 1))
    for _ in range(swaps):
        i, j = rng.choice(out.size, size=2, replace=False)
        out[i], out[j] = out[j], out[i]
    return out


def apply_output_permutation(layer, perm):
    """Reorder a layer's output channels: weight rows and bias entries."""
    perm = np.asarray(perm)
    if perm.size != layer.out_channels or not is_permutation(perm):
        raise ValueError(f"bad output permutation of size {perm.size} for layer "
                         f"{layer.id} with {layer.out_channels} channels")
    bias = None if layer.bias is None else layer.bias[perm].copy()
    return replace(layer, weight=layer.weight[perm].copy(), bias=bias)


def apply_input_permutation(layer, perm):
    """Reorder a conv's input channels; K*K weight columns move per block."""
    perm = np.asarray(perm)
    if layer.kind != "conv":
        raise ValueError(f"input permutation only supported on conv layers, "
                         f"not {layer.kind} ({layer.id})")
    if perm.size != layer.in_channels or not is_permutation(perm):
        raise ValueError(f"bad input permutation of size {perm.size} for layer "
                         f"{layer.id} with {layer.in_channels} channels")
    return replace(layer, weight=layer.weight[:, perm].copy())


def joint_reorder(layers, perms):
    """Apply one permutation per adjacent pair: outputs of layer i and inputs
    of layer i+1 move together, so the block function is preserved."""
    if len(perms) != len(layers) - 1:
        raise ValueError(f"need {len(layers) - 1} permutations for "
                         f"{len(layers)} layers, got {len(perms)}")
    reordered = list(layers)
    for slot, perm in enumerate(perms):
        reordered[slot] = apply_output_permutation(reordered[slot], perm)
        reordered[slot + 1] = apply_input_permutation(reordered[slot + 1], perm)
    return reordered


@dataclass
class SegmentContext:
    """Everything needed to score one block in isolation: its conv layers,
    the float activations entering the block, and the calibration setup."""

    segment_id: str
    layers: list
    block_input: np.ndarray
    granularity: object
    calib_cfg: CalibConfig


def score_block(ctx, layers):
    """Fitness of a reordered block: negative euclidean distance between the
    quantized and float outputs of the block's last conv, after recalibrating
    every scale inside the block (quantized activations propagate within).

    One calibration_walk over the block from its float input, as
    calibrate_network walks the whole network.
    """
    last = layers[-1]

    def measure(layer, out, ref):  # only the block's output is scored
        if layer is last:
            return -distance(reference_target(layer, out), reference_target(layer, ref),
                             "euclidean")

    feeds = {layers[0].predecessors[0]: ctx.block_input}
    *_, (_, score) = calibration_walk(layers, feeds, ctx.granularity, ctx.calib_cfg, measure)
    return score


@dataclass
class EAResult:
    segment_id: str
    best_perms: tuple
    best_score: float
    identity_score: float


def segment_layers(graph, segment):
    """The layers of a segment, which must be a chain of convs on the
    prepared graph: each layer after the first reads only the one before it,
    and every inner layer feeds only the next one, so a joint reordering
    preserves the function.
    """
    layers = [graph.layer(lid) for lid in segment.layer_ids]
    if not layers:
        raise BadInputError(f"segment {segment.id} has no layers")
    consumers = successors(graph)
    for i, layer in enumerate(layers):
        if layer.kind != "conv":
            fault = f"{layer.id} is a {layer.kind} layer, not a conv"
        elif i and layer.predecessors != [layers[i - 1].id]:
            fault = f"{layer.id} does not read only from {layers[i - 1].id}"
        elif i < len(layers) - 1 and consumers[layer.id] != [layers[i + 1].id]:
            fault = f"{layer.id} feeds {consumers[layer.id]}, not only {layers[i + 1].id}"
        else:
            continue
        raise BadInputError(f"segment {segment.id} is not a conv chain: {fault}")
    return layers


def check_segments(graph):
    """Every segment is a conv chain (see segment_layers), and no layer is in
    two segments, so each segment's search can run on the graph as loaded:
    no segment's reordering changes another's layers."""
    owner = {}
    for segment in graph.segments:
        for layer in segment_layers(graph, segment):
            if layer.id in owner:
                raise BadInputError(f"segments {owner[layer.id]} and {segment.id} overlap "
                                    f"at layer {layer.id}")
            owner[layer.id] = segment.id


def make_segment_context(graph, segment, float_refs, granularity, calib_cfg):
    """Build the scoring context for a segment (see segment_layers) from
    float activations by layer id, which hold the one entering it."""
    layers = segment_layers(graph, segment)
    entry = layers[0].predecessors[0]
    return SegmentContext(segment_id=segment.id, layers=layers,
                          block_input=float_refs[entry], granularity=granularity,
                          calib_cfg=calib_cfg)


def ea_search(ctx, cfg):
    """Evolutionary search over joint reorderings of one segment.

    The identity individual seeds the population, so the returned best is
    never worse than not reordering. Each generation scores the population,
    keeps the top `selection` fraction as parents, and refills the rest with
    mutants of random parents. Individuals are scored once and cached.
    """
    rng = np.random.default_rng(cfg.seed)
    slot_sizes = [layer.out_channels for layer in ctx.layers[:-1]]

    def random_individual():
        return tuple(rng.permutation(c).astype(np.int64) for c in slot_sizes)

    def key(ind):
        return tuple(tuple(int(v) for v in perm) for perm in ind)

    population = [tuple(identity_permutation(c) for c in slot_sizes)]
    while len(population) < cfg.population:
        population.append(random_individual())

    cache = {}

    def score(ind):
        k = key(ind)
        if k not in cache:
            cache[k] = score_block(ctx, joint_reorder(ctx.layers, list(ind)))
        return cache[k]

    scores = [score(ind) for ind in population]
    identity_score = scores[0]
    best_idx = int(np.argmax(scores))
    best_ind, best_score = population[best_idx], scores[best_idx]

    n_parents = max(1, int(round(cfg.population * cfg.selection)))
    for _ in range(cfg.iterations):
        order = np.argsort(-np.asarray(scores), kind="stable")
        parents = [population[i] for i in order[:n_parents]]
        parent_scores = [scores[i] for i in order[:n_parents]]
        offspring = []
        for _ in range(cfg.population - n_parents):
            parent = parents[int(rng.integers(len(parents)))]
            offspring.append(tuple(mutate(p, cfg.max_pairs, rng) for p in parent))
        population = parents + offspring
        scores = parent_scores + [score(ind) for ind in offspring]
        gen_best = int(np.argmax(scores))
        if scores[gen_best] > best_score:
            best_ind, best_score = population[gen_best], scores[gen_best]

    return EAResult(segment_id=ctx.segment_id, best_perms=best_ind,
                    best_score=best_score, identity_score=identity_score)


def commit_segment_reordering(graph, segment, perms):
    """Write a segment's joint reordering back into the graph layers."""
    layers = [graph.layer(lid) for lid in segment.layer_ids]
    reordered = joint_reorder(layers, list(perms))
    table = {layer.id: layer for layer in reordered}
    graph.layers = [table.get(layer.id, layer) for layer in graph.layers]
    return graph
