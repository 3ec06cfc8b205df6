"""Command line front end: quantize, sweep, reorder, overhead, and eval.

Every command takes a JSON run config (see README for the schema) plus
optional --out/--seed/--jobs overrides; reports are plain CSV and JSON files
written atomically. Exit codes: 0 success, 1 internal error, 2 bad input.
"""

import argparse
import contextlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import network_overhead_report, write_overhead_csv, write_overhead_json
from .calib import (
    CalibConfig,
    Lockstep,
    StreamingDistance,
    calibrate_network,
    distance,
    float_walk,
    subsample,
)
from .errors import BadInputError
from .model import (
    CalibrationSetReader,
    check_shapes,
    execute,
    load_bundle,
    load_calibration_set,
    prepare_for_quantization,
    propagate_shapes,
    quantized_conv,
    read_json,
    require_int,
    require_number,
    sample_size,
    save_bundle,
    write_csv,
    write_json,
)
from .quant import GranularityConfig, check_bits, make_partition
from .reorder import ReorderConfig, check_segments, ea_search, joint_reorder, score_block
from .tensor import block_samples

OUT_ENV_VAR = "SUBQUANT_OUT"


@dataclass
class RunConfig:
    model: Path
    calibration: Path | None
    granularity: GranularityConfig
    calib: CalibConfig
    reorder: ReorderConfig
    out: Path
    seed: int
    jobs: int
    sweep_rows: list
    sweep_cols: list
    sweep_h: list
    eval_inputs: Path | None
    eval_labels: Path | None


def _section(raw, key):
    """A config section, which must be a JSON object when present."""
    entry = raw.get(key, {})
    if not isinstance(entry, dict):
        raise TypeError(f"{key} must be a JSON object, got {entry!r}")
    return entry


def _count_list(what, value):
    """A list of integers >= 1, such as a sweep axis."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list of integers, got {value!r}")
    for v in value:
        require_int(f"each entry of {what}", v, 1)
    return value


def _granularity_from(entry):
    sizes = {key: require_int(f"granularity.{key}", entry[key])
             for key in ("rows_per_group", "cols_per_group", "h_groups")
             if entry.get(key) is not None}
    return GranularityConfig(mode=entry.get("mode", "channelwise"), **sizes)


def _config_from(cls, section, entry):
    """cls(**entry), once every integer field that `entry` sets is an integer,
    every float field a number and the seed non-negative."""
    for f in fields(cls):
        if f.name not in entry:
            continue
        what, value = f"{section}.{f.name}", entry[f.name]
        if f.type is int:
            require_int(what, value, 0 if f.name == "seed" else None)
        elif f.type is float:
            require_number(what, value)
    return cls(**entry)


def _calib_from(entry):
    calib = _config_from(CalibConfig, "calib", entry)
    for what in ("weight_bits", "act_bits"):
        check_bits(f"calib.{what}", getattr(calib, what))  # as load_bundle does
    return calib


def load_run_config(path, out=None, seed=None, jobs=None):
    path = Path(path)
    if not path.is_file():
        raise BadInputError(f"config file not found: {path}")
    raw = read_json(path, f"malformed config {path}")
    try:
        if not isinstance(raw, dict):
            raise TypeError(f"the config must be a JSON object, got {raw!r}")
        run_seed = require_int("seed", seed if seed is not None else raw.get("seed", 0), 0)
        calib_raw = dict(_section(raw, "calib"))
        calib_raw.setdefault("seed", run_seed)
        reorder_raw = dict(_section(raw, "reorder"))
        reorder_raw.setdefault("seed", run_seed)
        sweep = _section(raw, "sweep")
        eval_raw = _section(raw, "eval")
        out_dir = Path(out if out is not None
                       else os.environ.get(OUT_ENV_VAR) or raw.get("out", "subquant-out"))
        model = raw["model"]
        run_jobs = require_int("jobs", jobs if jobs is not None else raw.get("jobs", 1), 1)
        cfg = RunConfig(
            model=(path.parent / model).resolve() if not Path(model).is_absolute() else Path(model),
            calibration=_resolve_optional(path, raw.get("calibration")),
            granularity=_granularity_from(_section(raw, "granularity")),
            calib=_calib_from(calib_raw),
            reorder=_config_from(ReorderConfig, "reorder", reorder_raw),
            out=out_dir,
            seed=run_seed,
            jobs=run_jobs,
            sweep_rows=_count_list("sweep.rows", sweep.get("rows", [])),
            sweep_cols=_count_list("sweep.cols", sweep.get("cols", [])),
            sweep_h=_count_list("sweep.h_groups", sweep.get("h_groups", [])),
            eval_inputs=_resolve_optional(path, eval_raw.get("inputs")),
            eval_labels=_resolve_optional(path, eval_raw.get("labels")),
        )
    except BadInputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInputError(f"invalid config {path}: {exc}") from exc
    if not cfg.model.exists():
        raise BadInputError(f"model bundle not found: {cfg.model}")
    return cfg


def _resolve_optional(config_path, value):
    if value is None:
        return None
    p = Path(value)
    return p if p.is_absolute() else (config_path.parent / p).resolve()


def _load_model(cfg):
    """The prepared bundle, once it has one input and one output layer and
    weights on every conv and linear layer (`overhead` runs without them)."""
    graph = load_bundle(cfg.model)
    for kind in ("input", "output"):
        ids = [layer.id for layer in graph.layers if layer.kind == kind]
        if len(ids) != 1:
            raise BadInputError(f"the model needs one {kind} layer, has {len(ids)}: {ids}")
    for layer in graph.conv_like():
        if layer.weight is None:
            raise BadInputError(f"layer {layer.id}: a {layer.kind} layer needs a weight blob")
    return check_shapes(prepare_for_quantization(graph))


def _check_sample_shape(path, dims, graph):
    """Samples of shape `dims`, from the PTQC file `path`, fit the graph input."""
    expect = list(graph.input_shape[1:])
    if expect and list(dims) != expect:
        raise BadInputError(f"{path}: samples of shape {list(dims)} do not "
                            f"match the model input {expect}")


def _load_samples(cfg, graph):
    if cfg.calibration is None:
        raise BadInputError("config has no calibration set path")
    samples = load_calibration_set(cfg.calibration)
    _check_sample_shape(cfg.calibration, samples.shape[1:], graph)
    return samples


def _layer_distance_rows(graph, scales, distances):
    """The rows of layer_distances.csv and eval_layer_distances.csv."""
    return [["layer", "kind", "quantized", "distance"]] + [
        [layer.id, layer.kind, int(layer.id in scales), repr(distances[layer.id])]
        for layer in graph.layers]


def cmd_quantize(cfg):
    graph = _load_model(cfg)
    samples = _load_samples(cfg, graph)
    result = calibrate_network(graph.layers, {graph.input_id: samples}, cfg.granularity,
                               cfg.calib)
    network_distance = result.layer_distances[graph.output_id]
    graph.scales = result.scales
    bundle_dir = save_bundle(graph, cfg.out / "quantized")
    write_csv(cfg.out / "layer_distances.csv",
              _layer_distance_rows(graph, result.scales, result.layer_distances))
    summary = {
        "granularity": cfg.granularity.describe(),
        "metric": cfg.calib.metric,
        "weight_bits": cfg.calib.weight_bits,
        "act_bits": cfg.calib.act_bits,
        "seed": cfg.seed,
        "calibration_samples": int(min(cfg.calib.samples, samples.shape[0])),
        "network_distance": network_distance,
        "mean_quantized_layer_distance": result.mean_quantized_distance(),
        "quantized_layers": sorted(result.scales),
    }
    write_json(cfg.out / "quantize_summary.json", summary)
    print(f"quantized {len(result.scales)} layers; network distance "
          f"{network_distance:.6g}; bundle at {bundle_dir}")
    return 0


def parallel_map(fn, items, jobs):
    """[fn(item) for item in items], spread over up to `jobs` worker processes.

    Workers are forked, so `fn` may be a closure over large arrays: it and the
    items reach the workers through the fork, and only the results are
    pickled back. Results keep the order of `items`, whatever `jobs` is. With
    one worker (jobs 1 or a single item) everything runs in this process. An
    exception `fn` raises in a worker is raised here, and the items not yet
    started are dropped.
    """
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported here, as only a pool needs them: at module level they would
    # add about 15 ms to every command's start.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # A fork-context pool forks all its workers before it starts its own
    # threads, and the fork hands the initializer's arguments over unpickled.
    with ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                             initializer=_receive_work, initargs=(fn, items)) as pool:
        return list(pool.map(_run_item, range(len(items))))


_forked_work = None  # set in each worker process only: (fn, items)


def _receive_work(fn, items):
    global _forked_work
    _forked_work = fn, items


def _run_item(index):
    fn, items = _forked_work
    return fn(items[index])


def _sweep_axis(cfg):
    if cfg.sweep_rows and cfg.sweep_cols and cfg.sweep_h:
        raise BadInputError("sweep config must set either cols or h_groups, not both")
    if cfg.sweep_rows and (cfg.sweep_cols or cfg.sweep_h):
        return ("cols", cfg.sweep_cols) if cfg.sweep_cols else ("h_groups", cfg.sweep_h)
    raise BadInputError("sweep config needs non-empty rows and cols (or h_groups)")


def cmd_sweep(cfg):
    axis, col_values = _sweep_axis(cfg)
    graph = _load_model(cfg)
    samples = subsample(_load_samples(cfg, graph), cfg.calib.samples, cfg.calib.seed)
    eval_x, labels = _load_eval_set(cfg, graph) if cfg.eval_inputs else (None, None)
    with eval_x or contextlib.nullcontext():
        chunks = () if eval_x is None else (x for _, x in _eval_chunks(graph, eval_x))
        for x in itertools.chain([samples], chunks):
            for _ in float_walk(graph.layers, {graph.input_id: x}):
                pass  # a non-finite float forward exits 2 before any cell runs
        input_id, output_id = graph.input_id, graph.output_id

        def granularity(cell):
            rows, value = cell
            if axis == "cols":
                return GranularityConfig("method1", rows, value)
            return GranularityConfig("method2", rows, h_groups=value)

        def accuracy(scales):
            # A forked worker reads its chunks at their own offsets, so the
            # workers never move a file offset that they share.
            conv_op = quantized_conv(scales)
            hits = sum(_top1_hits(out, labels[i:i + len(x)])
                       for i, x in _eval_chunks(graph, eval_x)
                       for layer, out in execute(graph.layers, {input_id: x}, conv_op)
                       if layer.id == output_id)
            return {"accuracy": hits / eval_x.count}

        def run_cell(cell):
            result = calibrate_network(graph.layers, {input_id: samples}, granularity(cell),
                                       cfg.calib)
            outcome = {"distance": result.layer_distances[output_id]}
            if eval_x is not None:  # a failed accuracy pass keeps the distance
                outcome.update(_guarded(accuracy)(result.scales))
            return outcome

        cells = [(r, v) for r in cfg.sweep_rows for v in col_values]
        # Each distinct cell is calibrated once. The workers get the cells with the
        # most weight-scale groups, which take longest, first (ties in grid order),
        # so that no worker is left with a long cell at the end.
        distinct = sorted(dict.fromkeys(cells),
                          key=lambda cell: -_scale_groups(graph, granularity(cell)))
        grid = dict(zip(distinct, parallel_map(_guarded(run_cell), distinct, cfg.jobs)))
    header = [f"rows\\{axis}"] + [str(v) for v in col_values]

    def table(key):
        return [header] + [[str(r)] + [_cell_text(grid[(r, v)], key) for v in col_values]
                           for r in cfg.sweep_rows]

    write_csv(cfg.out / "sweep_distance.csv", table("distance"))
    if eval_x is not None:
        write_csv(cfg.out / "sweep_accuracy.csv", table("accuracy"))
    summary = {
        "axis": axis,
        "rows": cfg.sweep_rows,
        "values": col_values,
        "metric": cfg.calib.metric,
        "seed": cfg.seed,
        "cells": [{"rows": r, axis: v, **grid[(r, v)]} for r, v in cells],
    }
    write_json(cfg.out / "sweep_summary.json", summary)
    failed = sum(1 for cell in cells if "error" in grid[cell])
    print(f"sweep finished: {len(cells) - failed}/{len(cells)} cells ok")
    return 0


def _scale_groups(graph, granularity):
    """Weight-scale groups of the quantized conv and linear layers of `graph`."""
    total = 0
    for layer in graph.conv_like():
        if layer.quantize:
            partition = make_partition(layer.out_channels, layer.weights_per_channel,
                                       granularity)
            total += partition.v_groups * partition.h_groups
    return total


def _guarded(fn):
    def wrapped(item):
        try:
            return fn(item)
        except Exception as exc:  # keep the sweep alive, mark the cell
            return {"error": f"{type(exc).__name__}: {exc}"}
    return wrapped


def _cell_text(cell, key):
    return repr(cell[key]) if key in cell else "FAILED"


def cmd_reorder(cfg):
    graph = _load_model(cfg)
    chains = check_segments(graph)  # reject bad segments before any calibration
    samples = _load_samples(cfg, graph)
    entries = [chain[0].predecessors[0] for chain in chains]
    block_inputs = {}

    def measure(layer, out, ref):  # keeps the float inputs of the segment searches
        if layer.id in entries:
            block_inputs[layer.id] = ref
        return distance(out, ref, cfg.calib.metric)

    baseline = calibrate_network(graph.layers, {graph.input_id: samples}, cfg.granularity,
                                 cfg.calib, measure).layer_distances[graph.output_id]

    def summary(segments, final):
        return {"granularity": cfg.granularity.describe(), "seed": cfg.seed,
                "segments": segments, "baseline_network_distance": baseline,
                "final_network_distance": final, "improvement": baseline - final}

    if not chains:
        print("no segments declared in the bundle; nothing to reorder")
        write_json(cfg.out / "reorder_summary.json", summary([], baseline))
        return 0
    # The segments are disjoint and every search reads only float activations,
    # so no search depends on another's commit: all run on the uncommitted
    # graph, and their reorderings are committed together.
    def search(index):
        fitness = partial(score_block, block_inputs[entries[index]], cfg.granularity, cfg.calib)
        return ea_search(chains[index], fitness,
                         replace(cfg.reorder, seed=cfg.reorder.seed + index))

    results = parallel_map(search, range(len(chains)), cfg.jobs)
    reordered = {layer.id: layer for chain, res in zip(chains, results)
                 for layer in joint_reorder(chain, list(res.best_perms))}
    graph.layers = [reordered.get(layer.id, layer) for layer in graph.layers]
    del block_inputs, chains  # the final calibration needs neither
    graph.reorderings = []  # replaces any that the loaded bundle carried
    rows = [["segment", "baseline_score", "best_score", "improvement"]]
    for segment, r in zip(graph.segments, results):
        print(f"segment {segment.id}: score {r.identity_score:.6g} -> {r.best_score:.6g}")
        graph.reorderings.append({
            "segment": segment.id,
            "permutations": [[int(v) for v in perm] for perm in r.best_perms],
            "score": r.best_score,
            "baseline_score": r.identity_score,
        })
        rows.append([segment.id, repr(r.identity_score), repr(r.best_score),
                     repr(r.best_score - r.identity_score)])
    final = calibrate_network(graph.layers, {graph.input_id: samples}, cfg.granularity,
                              cfg.calib)
    final_distance = final.layer_distances[graph.output_id]
    graph.scales = final.scales
    bundle_dir = save_bundle(graph, cfg.out / "reordered")
    write_csv(cfg.out / "segment_scores.csv", rows)
    write_json(cfg.out / "reorder_summary.json",
               summary(graph.reorderings, final_distance))
    print(f"reordered {len(results)} segments; network distance "
          f"{baseline:.6g} -> {final_distance:.6g}; "
          f"bundle at {bundle_dir}")
    return 0


def cmd_overhead(cfg):
    graph = load_bundle(cfg.model)
    try:
        report = network_overhead_report(graph, cfg.granularity)
    except ValueError as exc:
        raise BadInputError(f"no overhead report for {cfg.model}: {exc}") from exc
    write_overhead_csv(report, cfg.out / "overhead.csv")
    write_overhead_json(report, cfg.out / "overhead.json")
    print(f"compute overhead {100 * report.total_compute_overhead:.4f}%, "
          f"memory overhead {100 * report.total_memory_overhead:.4f}% "
          f"over {len(report.layers)} layers")
    return 0


def _load_eval_set(cfg, graph):
    """The eval samples, as an open CalibrationSetReader for the caller to
    close, and their labels, once every sample has been read, one chunk at a
    time, and found finite, the graph's output gives one score per class and
    every label names one of those classes."""
    if cfg.eval_inputs is None or cfg.eval_labels is None:
        raise BadInputError("eval requires eval.inputs and eval.labels in the config")
    with contextlib.ExitStack() as stack:
        eval_x = stack.enter_context(CalibrationSetReader(cfg.eval_inputs))
        for _ in _eval_chunks(graph, eval_x):  # each chunk's read checks its values
            pass
        _check_sample_shape(cfg.eval_inputs, eval_x.dims, graph)
        labels = _load_labels(cfg, graph, eval_x.count)
        stack.pop_all()
    return eval_x, labels


def _load_labels(cfg, graph, count):
    """The `count` labels of the eval set, checked against the graph's output."""
    if not cfg.eval_labels.is_file():
        raise BadInputError(f"labels file not found: {cfg.eval_labels}")
    raw = read_json(cfg.eval_labels, f"malformed labels file {cfg.eval_labels}")
    if not (isinstance(raw, list) and all(type(v) is int and abs(v) < 2 ** 63 for v in raw)):
        raise BadInputError(f"labels file {cfg.eval_labels} must hold a JSON list of "
                            f"64-bit integers")
    if len(raw) != count:
        raise BadInputError(f"{len(raw)} labels in {cfg.eval_labels} for "
                            f"{count} eval samples")
    output_id = graph.output_id
    shape = propagate_shapes(graph)[output_id]
    if len(shape) != 2:
        raise BadInputError(f"output layer {output_id} gives [N, "
                            f"{', '.join(map(str, shape[1:]))}] scores; eval needs "
                            f"[N, classes]")
    classes = shape[1]
    bad = next((i for i, v in enumerate(raw) if not 0 <= v < classes), None)
    if bad is not None:
        raise BadInputError(f"label {bad} in {cfg.eval_labels} is {raw[bad]}, outside "
                            f"[0, {classes}) for the {classes} classes of output layer "
                            f"{output_id}")
    return np.array(raw, dtype=np.int64)


def _eval_chunks(graph, eval_x):
    """(start, chunk) over the samples of the reader `eval_x`, each chunk read
    from the file as the walk reaches it, in the chunks that eval walks
    depth-first.

    A chunk holds as many samples as the smallest forward block
    (tensor.block_samples) of any conv or linear layer, so each layer runs
    a chunk in one block and only a few blocks' activations are live at
    once. Each chunk starts at a multiple of 8 samples of the whole set, so
    every float dgemm block does too.
    """
    shapes = propagate_shapes(graph)
    step = min((block_samples(sample_size(layer, shapes[layer.predecessors[0]]))
                for layer in graph.conv_like()), default=eval_x.count)
    for i in range(0, eval_x.count, step):
        yield i, eval_x.read(i, i + step)


def _top1_hits(scores, labels):
    return int(np.count_nonzero(np.argmax(scores, axis=1) == labels))


def cmd_eval(cfg):
    graph = _load_model(cfg)
    eval_x, labels = _load_eval_set(cfg, graph)
    with eval_x:
        if not graph.scales:
            samples = _load_samples(cfg, graph)
            graph.scales = calibrate_network(graph.layers, {graph.input_id: samples},
                                             cfg.granularity, cfg.calib).scales
        # One Lockstep walks each chunk of samples through the float and the
        # quantized network, whose one conv_op makes each layer's weight codes
        # once; each layer's distance and the top-1 hits add up over the chunks.
        n = eval_x.count
        distances = {lid: StreamingDistance(n * math.prod(shape[1:]), cfg.calib.metric)
                     for lid, shape in propagate_shapes(graph).items()}
        pair, output_id = Lockstep(graph.layers), graph.output_id
        conv_op = quantized_conv(graph.scales, pair.float_conv)
        float_hits = quant_hits = 0
        for i, x in _eval_chunks(graph, eval_x):
            chunk_labels = labels[i:i + len(x)]
            for layer, quant_out, float_out in pair.walk({graph.input_id: x}, conv_op):
                distances[layer.id].add(quant_out, float_out)
                if layer.id == output_id:
                    float_hits += _top1_hits(float_out, chunk_labels)
                    quant_hits += _top1_hits(quant_out, chunk_labels)
    values = {lid: d.value() for lid, d in distances.items()}
    float_top1, quant_top1 = float_hits / n, quant_hits / n
    write_csv(cfg.out / "eval_layer_distances.csv",
              _layer_distance_rows(graph, graph.scales, values))
    write_json(cfg.out / "eval_summary.json", {
        "eval_samples": n,
        "float_top1": float_top1,
        "quantized_top1": quant_top1,
        "network_distance": values[output_id],
        "seed": cfg.seed,
    })
    print(f"top-1 float {float_top1:.4f} vs quantized {quant_top1:.4f} on "
          f"{n} samples")
    return 0


COMMANDS = {
    "quantize": cmd_quantize,
    "sweep": cmd_sweep,
    "reorder": cmd_reorder,
    "overhead": cmd_overhead,
    "eval": cmd_eval,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subquant",
        description="Sub-layerwise post-training quantization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("quantize", "calibrate scales and write a quantized bundle"),
            ("sweep", "calibrate over a granularity grid and tabulate distances"),
            ("reorder", "search channel reorderings per segment, then quantize"),
            ("overhead", "analytic compute/memory overhead report"),
            ("eval", "top-1 accuracy of float vs quantized networks")]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run config")
        cmd.add_argument("--out", default=None, help="output directory "
                         f"(overrides config and ${OUT_ENV_VAR})")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument("--jobs", type=int, default=None,
                         help="worker processes for sweep cells and reorder segments")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, out=args.out, seed=args.seed, jobs=args.jobs)
        try:
            cfg.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise BadInputError(f"cannot create output directory {cfg.out}: "
                                f"{exc.strerror}") from exc
        return COMMANDS[args.command](cfg)
    except BadInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
