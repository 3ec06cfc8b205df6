"""Run the CLI in two checkouts on the same inputs and compare what it writes.

    python3 tools/same_outputs.py --parent DIR --change DIR [--work DIR]

Each DIR is a checkout whose `src/` holds the subquant package. In each, with
that `src/` on PYTHONPATH, the tool writes the demo fixtures with
`python -m subquant.fixtures` and then runs, on a small config (method2,
4 rows x 2 column groups; grid 12, 1 iteration, 16 samples; population 4,
1 generation), at `--jobs` 1 and again at 2:
- `quantize` and `reorder` on small_cnn, resnet20_style and toy_segment;
- `sweep` on small_cnn (rows 1 and 4 x 1 and 2 column groups) with its eval
  set, and again with no eval set on the method1 axis (rows 1 and 4 x 36
  and 72 columns);
- `eval` on small_cnn's eval set, of the bundle `quantize` wrote and of the
  unquantized bundle, which `eval` calibrates first;
- the same two `eval` runs on small_cnn and on resnet20_style with the
  model's 64-sample calibration set as the eval set, labelled by a file the
  tool writes into the fixtures, so that each layer's distance is streamed
  across more than one eval chunk;
- `overhead` on small_cnn and on the resnet18, resnet50 and yolov3_320
  shape manifests, which hold no weights;
- under the cosine metric and method1 groups (2 rows x 18 columns):
  `quantize` and the calibrating `eval` on small_cnn, and `reorder` on
  toy_segment;
- `quantize` on small_cnn under layerwise and under channelwise groups.

Every child runs under `-W error::RuntimeWarning`, so a numpy overflow or
invalid-value warning fails its command.

The two trees of fixtures and reports are then compared file by file, in
sorted order. The first file that is missing on one side or differs is
named, and the exit status is 1; it is 1 too when a command fails in either
checkout, and 0 when every file matches. A DIR without `src/subquant` is a
usage error (exit status 2). The trees stay under `--work` when it is
given (its `parent/tree` and `change/tree`), else in a temporary directory
that is removed at the end.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CALIB = {"grid_size": 12, "iterations": 1, "samples": 16}
GRANULARITY = {"mode": "method2", "rows_per_group": 4, "h_groups": 2}
# Labels of the 64 samples of each calibration set, when it is an eval set.
CALIB_LABELS = "calib_labels.json"


def write_calib_labels(fixtures):
    (fixtures / CALIB_LABELS).write_text(json.dumps([i % 10 for i in range(64)]))


def runs(fixtures, tree):
    """(name, command, run config) of every run, its reports under tree/runs/name."""
    def config(model, calibration=None, **extra):
        return {"model": str(fixtures / model),
                "calibration": str(fixtures / calibration) if calibration else None,
                "granularity": GRANULARITY, "calib": CALIB,
                "reorder": {"population": 4, "iterations": 1}, **extra}

    eval_set = {"inputs": str(fixtures / "small_cnn_eval.ptqc"),
                "labels": str(fixtures / "small_cnn_eval_labels.json")}
    cosine = {"calib": {**CALIB, "metric": "cosine"},  # the other metric and method
              "granularity": {"mode": "method1", "rows_per_group": 2, "cols_per_group": 18}}
    for jobs in (1, 2):
        for model in ("small_cnn", "resnet20_style", "toy_segment"):
            calibration = f"{model}_calib.ptqc"
            for command in ("quantize", "reorder"):
                yield f"{command}-{model}-j{jobs}", command, config(model, calibration)
        yield (f"sweep-small_cnn-j{jobs}", "sweep",
               config("small_cnn", "small_cnn_calib.ptqc", eval=eval_set,
                      sweep={"rows": [1, 4], "h_groups": [1, 2]}))
        yield (f"sweep-small_cnn-cols-j{jobs}", "sweep",
               config("small_cnn", "small_cnn_calib.ptqc",
                      sweep={"rows": [1, 4], "cols": [36, 72]}))
        for name, model, inputs, labels in (
                ("small_cnn", "small_cnn", "small_cnn_eval.ptqc", "small_cnn_eval_labels.json"),
                ("small_cnn-calib", "small_cnn", "small_cnn_calib.ptqc", CALIB_LABELS),
                ("resnet20_style-calib", "resnet20_style", "resnet20_style_calib.ptqc",
                 CALIB_LABELS)):
            evals = {"inputs": str(fixtures / inputs), "labels": str(fixtures / labels)}
            quantized = tree / "runs" / f"quantize-{model}-j{jobs}" / "quantized"
            yield f"eval-quantized-{name}-j{jobs}", "eval", config(quantized, eval=evals)
            yield (f"eval-fallback-{name}-j{jobs}", "eval",
                   config(model, f"{model}_calib.ptqc", eval=evals))
        for model in ("small_cnn", "resnet18_shape", "resnet50_shape", "yolov3_320_shape"):
            yield f"overhead-{model}-j{jobs}", "overhead", config(model)
        yield (f"quantize-small_cnn-cosine-j{jobs}", "quantize",
               config("small_cnn", "small_cnn_calib.ptqc", **cosine))
        yield (f"eval-fallback-small_cnn-cosine-j{jobs}", "eval",
               config("small_cnn", "small_cnn_calib.ptqc", eval=eval_set, **cosine))
        yield (f"reorder-toy_segment-cosine-j{jobs}", "reorder",
               config("toy_segment", "toy_segment_calib.ptqc", **cosine))
        for mode in ("layerwise", "channelwise"):
            yield (f"quantize-small_cnn-{mode}-j{jobs}", "quantize",
                   config("small_cnn", "small_cnn_calib.ptqc", granularity={"mode": mode}))


def run_side(checkout, side_dir):
    """Write the fixtures and every run's reports under side_dir/tree; the
    (name, stderr) of the first command that fails, or None."""
    tree, configs = side_dir / "tree", side_dir / "configs"
    fixtures = tree / "fixtures"
    configs.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}

    def run(name, *args):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                              cwd=checkout, env=env,
                              capture_output=True, text=True, check=False)
        return None if proc.returncode == 0 else (name, proc.stderr)

    failed = run("fixtures", "-m", "subquant.fixtures", str(fixtures))
    if not failed:
        write_calib_labels(fixtures)
    for name, command, config in ([] if failed else runs(fixtures, tree)):
        path = configs / f"{name}.json"
        path.write_text(json.dumps(config, indent=2))
        jobs = name.rsplit("-j", 1)[1]
        failed = run(name, "-m", "subquant.cli", command, "--config", str(path),
                     "--jobs", jobs, "--out", str(tree / "runs" / name))
        if failed:
            break
    return failed


def tree_files(root):
    """{path relative to root: bytes} of every file under root."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def first_difference(a, b):
    """The first path, in sorted order, of a file that is missing under one of
    the directories a and b or differs between them; None when all match."""
    ours, theirs = tree_files(a), tree_files(b)
    return next((path for path in sorted(ours.keys() | theirs.keys())
                 if ours.get(path) != theirs.get(path)), None)


def compare(sides, work):
    for side, checkout in sides.items():
        failed = run_side(checkout, work / side)
        if failed:
            name, stderr = failed
            print(f"{side}: {name} failed in {checkout}\n{stderr}", file=sys.stderr)
            return 1
    differs = first_difference(work / "parent" / "tree", work / "change" / "tree")
    if differs is not None:
        print(f"outputs differ, first in {differs}", file=sys.stderr)
        return 1
    print(f"outputs identical: {len(tree_files(work / 'parent' / 'tree'))} files")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the trees here (must not exist yet)")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "src" / "subquant").is_dir():
            parser.error(f"--{side} {checkout} has no src/subquant")
    if args.work is not None:
        if args.work.exists():
            parser.error(f"--work {args.work} already exists")
        return compare(sides, args.work.resolve())
    with tempfile.TemporaryDirectory() as work:
        return compare(sides, Path(work))


if __name__ == "__main__":
    sys.exit(main())
