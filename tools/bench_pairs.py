"""Alternating parent/change runs of one perfbench workload, as one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload eval-large \
        --seeds 0 7 --pairs 10 --seconds 5 --out BENCH_eval-large.json

Each DIR is a checkout of the revision to measure (a `git clone`, so that
`perfbench/run.py` builds from its own sources). For every seed, pair i runs
`perfbench/run.py --trace 0` once in each checkout, the parent first when i
is even and the change first when it is odd, so drift in machine load falls
on both sides alike. A workload whose op runs at `--jobs 1` (as this tool's
perfbench/workloads.py sets it) runs both sides of a pair pinned to one
core, through `os.sched_setaffinity` on each perfbench child process, and
the core alternates between pairs over the cores this process may use: op
times differ by core on a small machine, and a pair then compares the two
sides on one core. A workload at more jobs runs unpinned. The file holds
every pair's end-to-end metrics, and per seed and metric the two medians,
the parent's and the change's interquartile range, the change/parent ratio
of the medians and the pairs the change won (by each metric's `better`
direction in the `end_to_end` list of BENCHMARK.json); also each pair's core
(null when unpinned), the machine facts perfbench prints (a pinned run sees
one core) and both git revisions. Per metric, `gain_shown` says that the
change won at least 9/10 of the pairs and that its median is better than the
parent's by more than the parent's interquartile range; `regressed` says
that the change's median is worse than the parent's by more than the
metric's relative `bound`; `unresolved` says that the parent's interquartile
range is wider than that bound, so the pairs cannot show the metric
unchanged, and that not every run of the change is better than every run of
the parent.

Pairs compare only runs of the same benchmark code, so the two checkouts'
`BENCHMARK.json` and `perfbench/` files (bytecode caches aside) must match
byte for byte; the first file that differs is named in a usage error (exit
status 2) before any run, as is a directory that is not a git checkout or
a workload that perfbench/workloads.py does not define.

After each seed's pairs, stderr gets one line per metric with both medians,
the ratio, the wins and the verdicts that hold (`unchanged` if none does).
The file is written in any case; the exit status is 1 if any run reported an
incorrect op (each such seed, pair and side is named on stderr), else 0.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WORKLOADS = BENCHMARK.parent / "perfbench" / "workloads.py"


def end_to_end_metrics():
    """{metric name: its entry} of the benchmark's end-to-end metrics, each with
    its `better` direction ("lower" or "higher") and relative `bound`."""
    return {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def workload_jobs():
    """{workload name: the --jobs value perfbench passes to its op}, read from
    perfbench/workloads.py, which imports nothing beyond the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: workload.jobs for name, workload in module.WORKLOADS.items()}


def run_once(checkout, workload, seed, seconds, core):
    """One perfbench run, pinned with everything it starts to the one CPU
    `core` unless that is None; returns (end-to-end metrics, machine facts)."""
    pin = None if core is None else (lambda: os.sched_setaffinity(0, {core}))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=False,
                          preexec_fn=pin)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["correct"] = result["correct"]
    machine = next(json.loads(line.split("machine ", 1)[1]) for line in lines
                   if line.strip().startswith("machine "))
    return metrics, machine


def benchmark_files(checkout):
    """{path relative to `checkout`: bytes} of its BENCHMARK.json and of every
    file under its perfbench/, bytecode caches aside."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    return {path.relative_to(checkout).as_posix(): path.read_bytes() for path in paths
            if path.is_file() and "__pycache__" not in path.parts}


def first_benchmark_difference(parent, change):
    """The first path, in sorted order, whose benchmark file is missing from one
    checkout or differs between them; None when all of them match."""
    ours, theirs = benchmark_files(parent), benchmark_files(change)
    return next((path for path in sorted(ours.keys() | theirs.keys())
                 if ours.get(path) != theirs.get(path)), None)


def revision(checkout):
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                              check=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs):
    """Per metric: medians, IQRs, the change/parent ratio, the change's wins,
    and whether they show a gain, a regression or too wide a spread to tell."""
    summary = {}
    metrics = end_to_end_metrics()
    for name in pairs[0]["parent"]:
        if name == "correct":
            continue
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        lower = metrics[name]["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p50, c50 = statistics.median(parent), statistics.median(change)
        gain = (p50 - c50) if lower else (c50 - p50)  # > 0: the change is better
        parent_iqr = iqr(parent)
        bound = metrics[name]["bound"] * abs(p50)
        all_better = max(change) < min(parent) if lower else min(change) > max(parent)
        summary[name] = {"parent_median": p50, "change_median": c50,
                         "parent_iqr": parent_iqr, "change_iqr": iqr(change),
                         "ratio": c50 / p50 if p50 else None, "change_wins": wins,
                         "better": metrics[name]["better"],
                         "gain_shown": 10 * wins >= 9 * len(pairs) and gain > parent_iqr,
                         "regressed": -gain > bound,
                         "unresolved": parent_iqr > bound and not all_better}
    summary["all_ops_correct"] = all(p[side]["correct"] for p in pairs
                                     for side in ("parent", "change"))
    return summary


VERDICTS = ("gain_shown", "regressed", "unresolved")


def verdict_lines(seed, summary, pairs):
    """One line per metric of a seed's summary: its medians, ratio and wins,
    then the verdicts that hold, or `unchanged` when none does."""
    for name, entry in summary.items():
        if name == "all_ops_correct":
            continue
        ratio = f"{entry['ratio']:.3f}x" if entry["ratio"] is not None else "no ratio"
        verdicts = [v for v in VERDICTS if entry[v]] or ["unchanged"]
        yield (f"seed {seed} {name}: parent {entry['parent_median']:.4g}, change "
               f"{entry['change_median']:.4g} ({ratio}, {entry['change_wins']}/{pairs} wins): "
               + ", ".join(verdicts))


def at_least_two(text):
    """--pairs: an integer of at least 2, the fewest values an IQR is taken of."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    parser.add_argument("--pairs", type=at_least_two, default=10,
                        help="pairs per seed, at least 2 for the interquartile ranges")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:  # before the pairs, so that a checkout without git fails at once
        revisions = {side: revision(path) for side, path in sides.items()}
    except (OSError, subprocess.CalledProcessError):
        parser.error("--parent and --change must be git checkouts, to record their revisions")
    differs = first_benchmark_difference(sides["parent"], sides["change"])
    if differs is not None:
        parser.error(f"the checkouts' benchmark code differs, first in {differs}: pairs "
                     f"compare only runs of identical BENCHMARK.json and perfbench/ files")
    jobs = workload_jobs()
    if args.workload not in jobs:
        parser.error(f"unknown workload {args.workload!r}; perfbench has "
                     f"{', '.join(sorted(jobs))}")
    cores = sorted(os.sched_getaffinity(0)) if jobs[args.workload] == 1 else [None]
    seeds, machine = {}, None
    for seed in args.seeds:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0], "core": cores[i % len(cores)]}
            for side in order:
                pair[side], machine = run_once(sides[side], args.workload, seed, args.seconds,
                                               pair["core"])
            pairs.append(pair)
            print(f"seed {seed} pair {i}: " + ", ".join(
                f"{side} {pair[side]['op_s_p50']:.3f} s {pair[side]['peak_rss_mb']:.1f} MB"
                for side in ("parent", "change")), file=sys.stderr)
        seeds[str(seed)] = {"summary": summarize(pairs), "pairs": pairs}
        for line in verdict_lines(seed, seeds[str(seed)]["summary"], len(pairs)):
            print(line, file=sys.stderr)
    record = {
        "workload": args.workload,
        "command": f"perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs_per_seed": args.pairs,
        "machine": machine,
        "revisions": revisions,
        "seeds": seeds,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    incorrect = incorrect_runs(seeds)
    for seed, i, side in incorrect:
        print(f"seed {seed} pair {i}: the {side} side reported an incorrect op",
              file=sys.stderr)
    return 1 if incorrect else 0


def incorrect_runs(seeds):
    """(seed, pair index, side) of every run whose perfbench result was not correct."""
    return [(seed, i, side) for seed, entry in seeds.items()
            for i, pair in enumerate(entry["pairs"]) for side in ("parent", "change")
            if not pair[side]["correct"]]


if __name__ == "__main__":
    sys.exit(main())
