"""subquant benchmark: one closed-loop client driving the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the benchmark works under
`.perfbench_work/` at the checkout root and removes its run directory when
it ends. Set-up generates the workload's inputs from the seed (five times;
the median is `setup_s`), then ops run back to back, each in its own child
process, until S seconds have passed. Every op's outputs are hashed and
compared with the digests recorded in `reference_digests.json`.

With `--trace 0` the last line of stdout carries the end-to-end metrics;
with `--trace 1` traced and untraced ops alternate and it carries the
per-layer metrics, the tracing overhead, and the exact-count self-check.
The lines before it name every metric with its unit and the machine facts.
See README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, input_key

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

REFERENCES = BENCH_DIR / "reference_digests.json"
SETUP_REPS = 5
MIN_OPS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s; children are killed past this
COUNT_SUFFIXES = (".calls", ".individuals", ".spans")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_digests(out_dir, names):
    return {name: sha256(out_dir / name) if (out_dir / name).is_file() else None
            for name in names}


def tree_digests(base):
    """Digests of every generated set-up file except the machine facts."""
    return {str(p.relative_to(base)): sha256(p) for p in sorted(base.rglob("*"))
            if p.is_file() and p.name != "facts.json"}


def child_env():
    """One BLAS thread per worker: on a small shared machine, BLAS threads
    that wait on each other make op times swing far more than they save."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def nproc():
    return len(os.sched_getaffinity(0))


def run_child(args, log_path, deadline):
    """Run `python3 perfbench/child.py ARGS`; return (exit code, wall s, peak RSS MB).

    The child is killed if it is still running at `deadline` (a
    `time.monotonic()` value). The peak RSS is this child's own (`wait4`),
    so one op's or one workload's peak never carries into the next.
    """
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), *args],
                                cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024.0


def log_tail(path, lines=15):
    text = Path(path).read_text(errors="replace").splitlines()
    return "\n".join(text[-lines:])


def load_references(workload, seed):
    if not REFERENCES.is_file():
        return None
    table = json.loads(REFERENCES.read_text())
    return table.get(workload.name, {}).get(str(input_key(seed)))


def set_up(workload, seed, setup_dir, log_dir, deadline):
    """Generate inputs and run the workload's set-up CLI steps; return seconds."""
    start = time.perf_counter()
    log = log_dir / f"{setup_dir.name}.log"
    code, _, _ = run_child(["setup", workload.name, str(seed), str(setup_dir)], log, deadline)
    if code != 0:
        raise RuntimeError(f"set-up failed (exit {code}):\n{log_tail(log)}")
    for i, step in enumerate(workload.setup_steps):
        argv = [a.replace("{setup}", str(setup_dir)) for a in step]
        result = log_dir / f"{setup_dir.name}-step{i}.json"
        log = log_dir / f"{setup_dir.name}-step{i}.log"
        code, _, _ = run_child(["op", str(result), "0", "1", "--", *argv], log, deadline)
        if code != 0:
            raise RuntimeError(f"set-up step {step[0]} failed (exit {code}):\n"
                               f"{log_tail(log)}")
    return time.perf_counter() - start


def run_op(workload, setup_dir, out_dir, log_dir, trace, deadline, jobs=None):
    """One CLI op in a child process; returns its record."""
    jobs = workload.jobs if jobs is None else jobs
    result_path = log_dir / f"{out_dir.name}.json"
    argv = workload.op_argv(setup_dir, out_dir, jobs)
    code, wall, rss = run_child(["op", str(result_path), str(int(trace)), str(jobs),
                                 "--", *argv], log_dir / f"{out_dir.name}.log", deadline)
    record = {"exit_code": code, "wall_s": wall, "peak_rss_mb": rss, "trace": trace}
    if code == 0 and result_path.is_file():
        record.update(json.loads(result_path.read_text()))
        record["digests"] = output_digests(out_dir, workload.outputs)
        record["network_distance"] = workload.distance(out_dir)
    return record


def op_ok(record, reference):
    return (record["exit_code"] == 0 and "digests" in record and reference is not None
            and record["digests"] == reference["op"])


def counts(per_layer):
    return {k: v for k, v in per_layer.items() if k.endswith(COUNT_SUFFIXES)}


def measure(workload, seed, seconds, trace, work):
    """Set up, run the closed loop, check every output; return the result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    reference = load_references(workload, seed)
    log_dir = work / "logs"
    log_dir.mkdir(parents=True)
    setup_times, setup_digests = [], []
    for rep in range(SETUP_REPS):
        setup_dir = work / f"setup-{rep}"
        setup_times.append(set_up(workload, seed, setup_dir, log_dir, deadline))
        setup_digests.append(tree_digests(setup_dir))
    setup_dir = work / "setup-0"
    setup_ok = (reference is not None and all(d == reference["setup"] for d in setup_digests))
    facts = json.loads((setup_dir / "facts.json").read_text())

    records = []
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        out_dir = work / f"op-{len(records)}"
        records.append(run_op(workload, setup_dir, out_dir, log_dir, traced, deadline))
        shutil.rmtree(out_dir, ignore_errors=True)
        n_traced = sum(1 for r in records if r["trace"])
        enough = (n_traced >= 2 and len(records) - n_traced >= 2) if trace \
            else len(records) >= MIN_OPS
        if (enough and time.perf_counter() - start >= seconds) or time.monotonic() > deadline:
            break

    failed = sum(1 for r in records if not op_ok(r, reference))
    for i, r in enumerate(records):
        if not op_ok(r, reference):
            print(f"op {i} failed: exit {r['exit_code']}, digests {r.get('digests')}\n"
                  f"{log_tail(log_dir / f'op-{i}.log')}", file=sys.stderr)
    good = [r for r in records if not r["trace"] and "network_distance" in r]
    if not good:
        raise RuntimeError("no untraced op completed")
    op_s = statistics.median(r["op_s"] for r in good)
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s_p50": (op_s, "s"),
        "items_per_s": (workload.items_per_op / op_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MB"),
        "network_distance": (statistics.median(r["network_distance"] for r in good), "l2"),
        "ops_ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }
    alias, unit, factor = workload.alias
    notes = {
        "op_s_p50": f"median of {len(good)} untraced ops",
        "setup_s": f"median of {SETUP_REPS} set-ups",
        "items_per_s": f"{workload.item}s, {workload.items_per_op} per op",
    }
    print(f"workload {workload.name}, seed {seed} (inputs {input_key(seed)}), "
          f"{len(records)} ops in a closed loop of one client, trace {int(trace)}")
    for name, (value, u) in e2e.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<22} {value:.6g} {u}{extra}")
    print(f"  {alias:<22} {workload.items_per_op * factor / op_s:.6g} {unit}")
    print("  op times (s, t = traced): " + " ".join(
        f"{r.get('op_s', r['wall_s']):.3f}{'t' if r['trace'] else ''}" for r in records))
    print(f"  ops_failed_ratio       {failed / len(records):.6g} ratio"
          f"  ({failed} of {len(records)} attempted)")

    correct = setup_ok and failed == 0
    if not setup_ok:
        print("set-up outputs differ from the reference digests", file=sys.stderr)
    if trace:
        traced_runs = [r for r in records if r["trace"] and "per_layer" in r]
        same_counts = len({json.dumps(counts(r["per_layer"]), sort_keys=True)
                           for r in traced_runs}) == 1
        if not same_counts:
            print("exact-count self-check failed: traced ops disagree on call counts",
                  file=sys.stderr)
        correct = correct and same_counts and bool(traced_runs)
        metrics = per_layer_result(traced_runs, op_s)
    else:
        metrics = e2e
    machine = {"nproc": nproc(), **facts, "blas_threads": BLAS_THREADS, "jobs": workload.jobs}
    print(f"  machine {json.dumps(machine, sort_keys=True)}")
    if trace:
        for name, (value, u) in metrics.items():
            print(f"  {name:<40} {value:.6g} {u}")
    return {"correct": bool(correct), "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def per_layer_result(traced_runs, untraced_op_s):
    """Medians over the traced ops; counts are equal across them by check."""
    if not traced_runs:
        return {}
    keys = traced_runs[0]["per_layer"]
    metrics = {}
    for key in keys:
        values = [r["per_layer"][key] for r in traced_runs]
        metrics[key] = (statistics.median(values), per_layer_unit(key))
    traced_op_s = statistics.median(r["op_s"] for r in traced_runs)
    metrics["trace.op_s_p50"] = (traced_op_s, "s")
    metrics["trace.untraced_op_s_p50"] = (untraced_op_s, "s")
    metrics["trace.overhead_s"] = (traced_op_s - untraced_op_s, "s")
    return metrics


def per_layer_unit(key):
    if key.endswith(COUNT_SUFFIXES):
        return "count"
    if key.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subquant" / "cli.py").is_file():
        print(f"perfbench: {ROOT} holds no subquant sources (src/subquant)", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
