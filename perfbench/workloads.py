"""The benchmark's workloads: generated inputs, CLI argv, and output readers.

Model weights come from the fixture builders with their fixed seeds. Only
the calibration and eval inputs depend on the workload seed, through
`fixtures.random_inputs`. The seed is folded to one of `INPUT_KEYS` input
sets, so every seed has reference digests recorded in
`reference_digests.json`. The program always gets `--seed 0`: the workload
seed reaches it only through the generated inputs.

This module is imported by the benchmark parent without numpy; the
`write_inputs` methods run in the set-up child, which has subquant and numpy.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

INPUT_KEYS = 16
PROGRAM_SEED = "0"


def input_key(seed):
    return seed % INPUT_KEYS


def _write_config(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_model(out, name):
    from subquant import fixtures
    from subquant.model import save_bundle
    graph = getattr(fixtures, f"build_{name}")()
    save_bundle(graph, out / name)
    return graph


def _write_samples(path, graph, count, seed):
    from subquant.fixtures import random_inputs
    from subquant.model import save_calibration_set
    save_calibration_set(path, random_inputs(graph, count, seed))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # CLI subcommand run as the timed op
    jobs: int              # --jobs passed to the op
    item: str              # what one unit of throughput is
    items_per_op: int
    alias: tuple           # (metric name, unit, items-per-second factor)
    outputs: tuple         # op output files whose digests are checked
    inputs: Callable       # (dir, input key) -> writes bundles, inputs, run.json
    distance: Callable     # op output dir -> the op's network distance
    setup_steps: tuple = ()  # CLI argv run after write_inputs, inside set-up

    def op_argv(self, setup_dir, out_dir, jobs):
        return [self.command, "--config", str(setup_dir / "run.json"),
                "--out", str(out_dir), "--seed", PROGRAM_SEED, "--jobs", str(jobs)]

    def write_inputs(self, out, seed):
        out.mkdir(parents=True, exist_ok=True)
        self.inputs(out, input_key(seed))


# sweep-grid: calibration search only. rows {1, 4} x h_groups {1, 4} puts
# one weight-search-bound cell (rows=1, h=4) next to an input-search-bound
# one (rows=4, h=1), and the CLI thread pool runs them at jobs 2.
SWEEP_CALIB = {"grid_size": 20, "iterations": 2, "metric": "euclidean",
               "samples": 32, "weight_bits": 4, "act_bits": 8}
SWEEP_ROWS, SWEEP_H = [1, 4], [1, 4]


def _sweep_inputs(out, key):
    graph = _write_model(out, "small_cnn")
    _write_samples(out / "calib.ptqc", graph, SWEEP_CALIB["samples"], key)
    _write_config(out / "run.json", {
        "model": "small_cnn", "calibration": "calib.ptqc", "calib": SWEEP_CALIB,
        "sweep": {"rows": SWEEP_ROWS, "h_groups": SWEEP_H}, "seed": 0})


def _sweep_distance(out):
    cells = json.loads((out / "sweep_summary.json").read_text())["cells"]
    return sum(c["distance"] for c in cells) / len(cells)


# reorder-ea: EA fitness (score_block -> calibrate_layer per individual)
# dominates; resnet20_style has 9 segments.
REORDER = {"population": 6, "iterations": 2, "max_pairs": 8}
REORDER_SEGMENTS = 9
REORDER_SAMPLES = 16


def ea_individuals(population, iterations, selection=0.5, **_):
    """Individuals one `ea_search` scores, cache hits included: the initial
    population plus the offspring of every generation."""
    parents = max(1, int(round(population * selection)))
    return population + iterations * (population - parents)


def _reorder_inputs(out, key):
    graph = _write_model(out, "resnet20_style")
    _write_samples(out / "calib.ptqc", graph, REORDER_SAMPLES, key)
    _write_config(out / "run.json", {
        "model": "resnet20_style", "calibration": "calib.ptqc",
        "granularity": {"mode": "method1", "rows_per_group": 4, "cols_per_group": 36},
        "calib": {"grid_size": 10, "iterations": 1, "metric": "euclidean",
                  "samples": REORDER_SAMPLES, "weight_bits": 4, "act_bits": 8},
        "reorder": REORDER, "seed": 0})


def _reorder_distance(out):
    return json.loads((out / "reorder_summary.json").read_text())["final_network_distance"]


# eval-large: the quantized and float forwards once at large P, with no
# calibration search in the op. Set-up quantizes the bundle it evaluates.
EVAL_SAMPLES = 2048


def _eval_inputs(out, key):
    import numpy as np
    graph = _write_model(out, "small_cnn")
    _write_samples(out / "calib.ptqc", graph, 32, 2 * key)
    _write_samples(out / "eval.ptqc", graph, EVAL_SAMPLES, 2 * key + 1)
    labels = np.random.default_rng(key).integers(0, 10, EVAL_SAMPLES).tolist()
    (out / "labels.json").write_text(json.dumps(labels) + "\n")
    calib = {"grid_size": 20, "iterations": 1, "metric": "euclidean",
             "samples": 32, "weight_bits": 4, "act_bits": 8}
    _write_config(out / "quantize.json", {
        "model": "small_cnn", "calibration": "calib.ptqc", "calib": calib,
        "granularity": {"mode": "method2", "rows_per_group": 1, "h_groups": 4},
        "seed": 0})
    _write_config(out / "run.json", {
        "model": "quantize-out/quantized", "calib": calib,
        "eval": {"inputs": "eval.ptqc", "labels": "labels.json"}, "seed": 0})


def _eval_distance(out):
    return json.loads((out / "eval_summary.json").read_text())["network_distance"]


WORKLOADS = {w.name: w for w in [
    Workload("sweep-grid", "sweep", jobs=2, item="cell",
             items_per_op=len(SWEEP_ROWS) * len(SWEEP_H),
             alias=("cells_per_min", "1/min", 60.0),
             outputs=("sweep_distance.csv", "sweep_summary.json"),
             inputs=_sweep_inputs, distance=_sweep_distance),
    Workload("reorder-ea", "reorder", jobs=1, item="EA individual",
             items_per_op=REORDER_SEGMENTS * ea_individuals(**REORDER),
             alias=("individuals_per_s", "1/s", 1.0),
             outputs=("segment_scores.csv", "reorder_summary.json",
                      "reordered/manifest.json"),
             inputs=_reorder_inputs, distance=_reorder_distance),
    Workload("eval-large", "eval", jobs=1, item="eval sample",
             items_per_op=EVAL_SAMPLES,
             alias=("eval_samples_per_s", "1/s", 1.0),
             outputs=("eval_layer_distances.csv", "eval_summary.json"),
             inputs=_eval_inputs, distance=_eval_distance,
             setup_steps=(("quantize", "--config", "{setup}/quantize.json",
                           "--out", "{setup}/quantize-out", "--seed", PROGRAM_SEED),)),
]}
