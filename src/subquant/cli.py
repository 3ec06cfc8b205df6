"""Command line front end: quantize, sweep, reorder, overhead, and eval.

Every command takes a JSON run config (see README for the schema) plus
optional --out/--seed/--jobs overrides; reports are plain CSV and JSON files
written atomically. Exit codes: 0 success, 1 internal error, 2 bad input.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import network_overhead_report, write_overhead_csv, write_overhead_json
from .calib import CalibConfig, calibrate_network, distance, subsample
from .errors import BadInputError, SubquantError
from .model import (
    check_shapes,
    csv_text,
    execute,
    float_conv,
    forward_float,
    forward_quantized,
    load_bundle,
    load_calibration_set,
    prepare_for_quantization,
    quantized_conv,
    save_bundle,
    write_atomic,
)
from .quant import GranularityConfig
from .reorder import (
    ReorderConfig,
    commit_segment_reordering,
    ea_search,
    make_segment_context,
    segment_layers,
)

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


def _granularity_from(entry):
    mode = entry.get("mode", "channelwise")
    return GranularityConfig(mode=mode,
                             rows_per_group=int(entry.get("rows_per_group", 1)),
                             cols_per_group=entry.get("cols_per_group"),
                             h_groups=entry.get("h_groups"))


def load_run_config(path, out=None, seed=None, jobs=None):
    path = Path(path)
    if not path.is_file():
        raise BadInputError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BadInputError(f"malformed config {path}: {exc}") from exc
    try:
        run_seed = int(seed if seed is not None else raw.get("seed", 0))
        calib_raw = dict(raw.get("calib", {}))
        calib_raw.setdefault("seed", run_seed)
        reorder_raw = dict(raw.get("reorder", {}))
        reorder_raw.setdefault("seed", run_seed)
        sweep = raw.get("sweep", {})
        out_dir = Path(out if out is not None
                       else os.environ.get(OUT_ENV_VAR) or raw.get("out", "subquant-out"))
        model = raw["model"]
        cfg = RunConfig(
            model=(path.parent / model).resolve() if not Path(model).is_absolute() else Path(model),
            calibration=_resolve_optional(path, raw.get("calibration")),
            granularity=_granularity_from(raw.get("granularity", {})),
            calib=CalibConfig(**calib_raw),
            reorder=ReorderConfig(**reorder_raw),
            out=out_dir,
            seed=run_seed,
            jobs=int(jobs if jobs is not None else raw.get("jobs", 1)),
            sweep_rows=list(sweep.get("rows", [])),
            sweep_cols=list(sweep.get("cols", [])),
            sweep_h=list(sweep.get("h_groups", [])),
            eval_inputs=_resolve_optional(path, raw.get("eval", {}).get("inputs")),
            eval_labels=_resolve_optional(path, raw.get("eval", {}).get("labels")),
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


def _write_csv_atomic(path, rows):
    return write_atomic(path, csv_text(rows))


def _write_json_atomic(path, payload):
    return write_atomic(path, json.dumps(payload, indent=2) + "\n")


def _load_model(cfg):
    return check_shapes(prepare_for_quantization(load_bundle(cfg.model)))


def _load_sample_file(path, graph):
    """A PTQC file whose per-sample shape matches the graph input."""
    samples = load_calibration_set(path)
    expect = list(graph.input_shape[1:])
    if expect and list(samples.shape[1:]) != expect:
        raise BadInputError(f"{path}: samples of shape {list(samples.shape[1:])} do not "
                            f"match the model input {expect}")
    return samples


def _load_samples(cfg, graph):
    if cfg.calibration is None:
        raise BadInputError("config has no calibration set path")
    return _load_sample_file(cfg.calibration, graph)


def _layer_distance_rows(graph, result):
    rows = [["layer", "kind", "quantized", "distance"]]
    for layer in graph.layers:
        rows.append([layer.id, layer.kind,
                     int(layer.id in result.scales),
                     repr(result.layer_distances[layer.id])])
    return rows


def cmd_quantize(cfg):
    graph = _load_model(cfg)
    samples = _load_samples(cfg, graph)
    result = calibrate_network(graph, samples, cfg.granularity, cfg.calib)
    graph.scales = result.scales
    bundle_dir = save_bundle(graph, cfg.out / "quantized")
    _write_csv_atomic(cfg.out / "layer_distances.csv", _layer_distance_rows(graph, result))
    summary = {
        "granularity": cfg.granularity.describe(),
        "metric": cfg.calib.metric,
        "weight_bits": cfg.calib.weight_bits,
        "act_bits": cfg.calib.act_bits,
        "seed": cfg.seed,
        "calibration_samples": int(min(cfg.calib.samples, samples.shape[0])),
        "network_distance": result.network_distance,
        "mean_quantized_layer_distance": result.mean_quantized_distance(),
        "quantized_layers": sorted(result.scales),
    }
    _write_json_atomic(cfg.out / "quantize_summary.json", summary)
    print(f"quantized {len(result.scales)} layers; network distance "
          f"{result.network_distance:.6g}; bundle at {bundle_dir}")
    return 0


def _sweep_axis(cfg):
    if cfg.sweep_cols and cfg.sweep_h:
        raise BadInputError("sweep config must set either cols or h_groups, not both")
    if cfg.sweep_cols:
        return "cols", cfg.sweep_cols
    if cfg.sweep_h:
        return "h_groups", cfg.sweep_h
    raise BadInputError("sweep config needs non-empty rows and cols (or h_groups)")


def cmd_sweep(cfg):
    if not cfg.sweep_rows:
        raise BadInputError("sweep config needs non-empty rows and cols (or h_groups)")
    axis, col_values = _sweep_axis(cfg)
    graph = _load_model(cfg)
    samples = subsample(_load_samples(cfg, graph), cfg.calib.samples, cfg.calib.seed)
    references = forward_float(graph, samples)
    eval_data = _load_eval_set(cfg, graph) if cfg.eval_inputs else None

    def run_cell(rows, value):
        if axis == "cols":
            gran = GranularityConfig("method1", rows, int(value))
        else:
            gran = GranularityConfig("method2", rows, h_groups=int(value))
        result = calibrate_network(graph, samples, gran, cfg.calib,
                                   references=references)
        cell = {"distance": result.network_distance}
        if eval_data is not None:
            eval_x, labels = eval_data
            quant = forward_quantized(graph, eval_x, result.scales)[graph.output_id]
            cell["accuracy"] = float(np.mean(np.argmax(quant, axis=1) == labels))
        return cell

    cells = [(r, v) for r in cfg.sweep_rows for v in col_values]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(_guarded(run_cell), *zip(*cells)))
    else:
        outcomes = [_guarded(run_cell)(r, v) for r, v in cells]

    grid = dict(zip(cells, outcomes))
    header = [f"rows\\{axis}"] + [str(v) for v in col_values]

    def table(key):
        return [header] + [[str(r)] + [_cell_text(grid[(r, v)], key) for v in col_values]
                           for r in cfg.sweep_rows]

    _write_csv_atomic(cfg.out / "sweep_distance.csv", table("distance"))
    if eval_data is not None:
        _write_csv_atomic(cfg.out / "sweep_accuracy.csv", table("accuracy"))
    summary = {
        "axis": axis,
        "rows": cfg.sweep_rows,
        "values": col_values,
        "metric": cfg.calib.metric,
        "seed": cfg.seed,
        "cells": [{"rows": r, axis: v, **grid[(r, v)]} for r, v in cells],
    }
    _write_json_atomic(cfg.out / "sweep_summary.json", summary)
    failed = sum(1 for o in outcomes if "error" in o)
    print(f"sweep finished: {len(cells) - failed}/{len(cells)} cells ok")
    return 0


def _guarded(fn):
    def wrapped(*args):
        try:
            return fn(*args)
        except Exception as exc:  # keep the sweep alive, mark the cell
            return {"error": f"{type(exc).__name__}: {exc}"}
    return wrapped


def _cell_text(cell, key):
    if "error" in cell:
        return "FAILED"
    return repr(cell[key])


def cmd_reorder(cfg):
    graph = _load_model(cfg)
    for segment in graph.segments:  # reject a bad segment before any calibration
        segment_layers(graph, segment)
    samples = _load_samples(cfg, graph)
    calib_samples = subsample(samples, cfg.calib.samples, cfg.calib.seed)
    references = forward_float(graph, calib_samples)
    baseline = calibrate_network(graph, calib_samples, cfg.granularity, cfg.calib,
                                 references=references)
    if not graph.segments:
        print("no segments declared in the bundle; nothing to reorder")
        _write_json_atomic(cfg.out / "reorder_summary.json", {
            "segments": [], "baseline_network_distance": baseline.network_distance,
            "final_network_distance": baseline.network_distance, "seed": cfg.seed})
        return 0
    results = []
    for index, segment in enumerate(graph.segments):
        ctx = make_segment_context(graph, segment, references, cfg.granularity, cfg.calib)
        res = ea_search(ctx, replace(cfg.reorder, seed=cfg.reorder.seed + index))
        commit_segment_reordering(graph, segment, res.best_perms)
        results.append(res)
        print(f"segment {segment.id}: score {res.identity_score:.6g} -> "
              f"{res.best_score:.6g}")
    final = calibrate_network(graph, samples, cfg.granularity, cfg.calib)
    graph.scales = final.scales
    graph.reorderings = [{
        "segment": r.segment_id,
        "permutations": [[int(v) for v in perm] for perm in r.best_perms],
        "score": r.best_score,
        "baseline_score": r.identity_score,
    } for r in results]
    bundle_dir = save_bundle(graph, cfg.out / "reordered")
    rows = [["segment", "baseline_score", "best_score", "improvement"]]
    for r in results:
        rows.append([r.segment_id, repr(r.identity_score), repr(r.best_score),
                     repr(r.best_score - r.identity_score)])
    _write_csv_atomic(cfg.out / "segment_scores.csv", rows)
    _write_json_atomic(cfg.out / "reorder_summary.json", {
        "granularity": cfg.granularity.describe(),
        "seed": cfg.seed,
        "segments": graph.reorderings,
        "baseline_network_distance": baseline.network_distance,
        "final_network_distance": final.network_distance,
        "improvement": baseline.network_distance - final.network_distance,
    })
    print(f"reordered {len(results)} segments; network distance "
          f"{baseline.network_distance:.6g} -> {final.network_distance:.6g}; "
          f"bundle at {bundle_dir}")
    return 0


def cmd_overhead(cfg):
    graph = load_bundle(cfg.model)
    report = network_overhead_report(graph, cfg.granularity)
    write_overhead_csv(report, cfg.out / "overhead.csv")
    write_overhead_json(report, cfg.out / "overhead.json")
    print(f"compute overhead {100 * report.total_compute_overhead:.4f}%, "
          f"memory overhead {100 * report.total_memory_overhead:.4f}% "
          f"over {len(report.layers)} layers")
    return 0


def _load_eval_set(cfg, graph):
    if cfg.eval_inputs is None or cfg.eval_labels is None:
        raise BadInputError("eval requires eval.inputs and eval.labels in the config")
    eval_x = _load_sample_file(cfg.eval_inputs, graph)
    if eval_x.shape[0] == 0:
        raise BadInputError(f"eval set {cfg.eval_inputs} holds no samples")
    if not cfg.eval_labels.is_file():
        raise BadInputError(f"labels file not found: {cfg.eval_labels}")
    try:
        raw = json.loads(cfg.eval_labels.read_text())
    except json.JSONDecodeError as exc:
        raise BadInputError(f"malformed labels file {cfg.eval_labels}: {exc}") from exc
    if not (isinstance(raw, list) and all(type(v) is int and abs(v) < 2 ** 63 for v in raw)):
        raise BadInputError(f"labels file {cfg.eval_labels} must hold a JSON list of "
                            f"64-bit integers")
    if len(raw) != eval_x.shape[0]:
        raise BadInputError(f"{len(raw)} labels in {cfg.eval_labels} for "
                            f"{eval_x.shape[0]} eval samples")
    return eval_x, np.array(raw, dtype=np.int64)


def cmd_eval(cfg):
    graph = _load_model(cfg)
    eval_x, labels = _load_eval_set(cfg, graph)
    if not graph.scales:
        samples = _load_samples(cfg, graph)
        graph.scales = calibrate_network(graph, samples, cfg.granularity, cfg.calib).scales
    # one float and one quantized walk in lockstep; only the live activations
    # and the network outputs stay in memory
    feeds = {graph.input_id: eval_x}
    walks = zip(execute(graph.layers, feeds, float_conv),
                execute(graph.layers, feeds, quantized_conv(graph.scales)))
    out_id = graph.output_id
    rows = [["layer", "kind", "quantized", "distance"]]
    for (layer, float_out), (_, quant_out) in walks:
        d = distance(quant_out, float_out, cfg.calib.metric)
        rows.append([layer.id, layer.kind, int(layer.id in graph.scales), repr(d)])
        if layer.id == out_id:
            network_distance = d
            float_top1 = float(np.mean(np.argmax(float_out, axis=1) == labels))
            quant_top1 = float(np.mean(np.argmax(quant_out, axis=1) == labels))
    _write_csv_atomic(cfg.out / "eval_layer_distances.csv", rows)
    _write_json_atomic(cfg.out / "eval_summary.json", {
        "eval_samples": int(eval_x.shape[0]),
        "float_top1": float_top1,
        "quantized_top1": quant_top1,
        "network_distance": network_distance,
        "seed": cfg.seed,
    })
    print(f"top-1 float {float_top1:.4f} vs quantized {quant_top1:.4f} on "
          f"{eval_x.shape[0]} samples")
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
        cmd.add_argument("--jobs", type=int, default=None, help="parallel sweep workers")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, out=args.out, seed=args.seed, jobs=args.jobs)
        cfg.out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg)
    except BadInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SubquantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
