"""tools/bench_pairs.py: the record it writes and its exit status."""

import collections
import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("broken", [None, ("7", 1, "change"), ("0", 0, "parent")])
def test_incorrect_run_is_recorded_and_fails(bench_pairs, monkeypatch, tmp_path, capsys,
                                             broken):
    """The file is written either way; an incorrect run is named on stderr and
    makes the exit status 1."""
    calls = collections.Counter()

    def run_once(checkout, workload, seed, seconds, core):
        side = checkout.name
        pair = calls[seed, side]
        calls[seed, side] += 1
        return ({"op_s_p50": 1.0, "peak_rss_mb": 80.0,
                 "correct": (str(seed), pair, side) != broken}, {"cores": 2})

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "revision", lambda path: {"commit": path.name})
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "eval-large",
                             "--seeds", "0", "7", "--pairs", "2", "--out", str(out)])
    seeds = json.loads(out.read_text())["seeds"]
    named = [line for line in capsys.readouterr().err.splitlines() if "incorrect" in line]
    if broken is None:
        assert code == 0 and named == []
        assert all(seeds[s]["summary"]["all_ops_correct"] for s in ("0", "7"))
    else:
        seed, pair, side = broken
        assert code == 1
        assert named == [f"seed {seed} pair {pair}: the {side} side reported an incorrect op"]
        assert not seeds[seed]["summary"]["all_ops_correct"]
        assert seeds[seed]["pairs"][pair][side]["correct"] is False


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_rejected_before_any_run(bench_pairs, monkeypatch, tmp_path,
                                                     capsys, pairs):
    """An IQR needs two values, so --pairs below 2 is a usage error (exit
    status 2) raised before any perfbench run, and no file is written."""
    def run_once(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "eval-large",
                          "--pairs", pairs, "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"must be at least 2, got {pairs}" in capsys.readouterr().err
    assert not out.exists()


def test_checkout_without_git_rejected_before_any_run(bench_pairs, monkeypatch, tmp_path,
                                                      capsys):
    """The revisions are read before the pairs, so a plain directory (or a
    missing one) is a usage error raised before any perfbench run."""
    def run_once(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    (tmp_path / "parent").mkdir()
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "eval-large",
                          "--out", str(out)])
    assert exit_info.value.code == 2
    assert "must be git checkouts" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit,named", [
    (lambda root: (root / "BENCHMARK.json").write_text("{}"), "BENCHMARK.json"),
    (lambda root: (root / "perfbench" / "run.py").write_text("# edited\n"), "perfbench/run.py"),
    (lambda root: (root / "perfbench" / "extra.py").write_text(""), "perfbench/extra.py"),
    (lambda root: (root / "perfbench" / "workloads.py").unlink(), "perfbench/workloads.py"),
], ids=["edited-benchmark-json", "edited-file", "extra-file", "missing-file"])
def test_differing_benchmark_code_rejected_before_any_run(bench_pairs, monkeypatch, tmp_path,
                                                          capsys, edit, named):
    """Pairs compare only runs of the same benchmark code: a BENCHMARK.json or
    perfbench/ file that differs between the checkouts, or is missing from
    one, is a usage error naming the first such file, raised before any
    perfbench run. Bytecode caches are not benchmark code."""
    def run_once(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "revision", lambda path: {"commit": path.name})
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench" / "__pycache__").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text('{"workloads": []}')
        for name in ("run.py", "workloads.py"):
            (root / "perfbench" / name).write_text(f"# {name}\n")
        (root / "perfbench" / "__pycache__" / "run.pyc").write_text(side)
    edit(tmp_path / "change")
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "eval-large",
                          "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"benchmark code differs, first in {named}:" in capsys.readouterr().err
    assert not out.exists()


def test_matching_benchmark_code_ignores_bytecode_caches(bench_pairs, tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench" / "__pycache__").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("# run\n")
        (tmp_path / side / "perfbench" / "__pycache__" / "run.pyc").write_text(side)
    assert bench_pairs.first_benchmark_difference(tmp_path / "parent",
                                                  tmp_path / "change") is None


def fake_pairs(name, parent, change):
    return [{"parent": {name: p, "correct": True}, "change": {name: c, "correct": True}}
            for p, c in zip(parent, change)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.00]  # IQR 0.015


@pytest.mark.parametrize("name,change,gain_shown,regressed", [
    # op_s_p50: lower is better, bound 0.25
    ("op_s_p50", [0.5] * 10, True, False),
    ("op_s_p50", [0.5] * 8 + [1.1] * 2, False, False),   # 8/10 wins
    ("op_s_p50", [0.99] * 10, False, False),             # 10/10 wins, within the IQR
    ("op_s_p50", [1.2] * 10, False, False),              # 1.2x: worse, within the bound
    ("op_s_p50", [1.3] * 10, False, True),
    # items_per_s: higher is better, bound 0.25
    ("items_per_s", [2.0] * 10, True, False),
    ("items_per_s", [0.8] * 10, False, False),
    ("items_per_s", [0.7] * 10, False, True),
    # peak_rss_mb: bound 0.1
    ("peak_rss_mb", [1.09] * 10, False, False),
    ("peak_rss_mb", [1.11] * 10, False, True),
])
def test_gain_shown_and_regressed(bench_pairs, name, change, gain_shown, regressed):
    """gain_shown needs 9/10 wins and a median gain beyond the parent's IQR;
    regressed needs a median worse by more than the metric's relative bound."""
    entry = bench_pairs.summarize(fake_pairs(name, PARENT, change))[name]
    assert entry["parent_iqr"] == pytest.approx(0.015)
    assert (entry["gain_shown"], entry["regressed"]) == (gain_shown, regressed)
    assert not entry["unresolved"]


WIDE = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0, 0.9, 1.1]  # IQR 0.35
MID = [0.85, 1.15, 0.9, 1.1, 0.95, 1.05, 1.0, 1.0, 0.92, 1.08]  # IQR 0.145


@pytest.mark.parametrize("name,parent,change,unresolved", [
    # op_s_p50: lower is better, bound 0.25
    ("op_s_p50", WIDE, [1.0] * 10, True),
    ("op_s_p50", WIDE, [0.59] * 10, False),        # every change run beats every parent run
    ("op_s_p50", WIDE, [0.59] * 9 + [0.61], True),
    ("op_s_p50", MID, [1.0] * 10, False),          # IQR within the bound
    # items_per_s: higher is better, bound 0.25
    ("items_per_s", WIDE, [1.39] * 10, True),
    ("items_per_s", WIDE, [1.41] * 10, False),
    # peak_rss_mb: bound 0.1
    ("peak_rss_mb", MID, [1.0] * 10, True),
    ("peak_rss_mb", MID, [0.84] * 10, False),
])
def test_unresolved(bench_pairs, name, parent, change, unresolved):
    """unresolved needs a parent IQR wider than the metric's relative bound
    and a change run that is not better than every parent run."""
    entry = bench_pairs.summarize(fake_pairs(name, parent, change))[name]
    assert entry["unresolved"] == unresolved


def test_pair_line_prints_time_and_peak_rss(bench_pairs, monkeypatch, tmp_path, capsys):
    """Each pair's stderr line gives both sides' op_s_p50 and peak_rss_mb."""
    def run_once(checkout, workload, seed, seconds, core):
        rss = 188.8 if checkout.name == "parent" else 80.9
        return {"op_s_p50": 0.5, "peak_rss_mb": rss, "correct": True}, {}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "revision", lambda path: {"commit": path.name})
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "eval-large",
                             "--seeds", "0", "--pairs", "2",
                             "--out", str(tmp_path / "bench.json")]) == 0
    assert [line for line in capsys.readouterr().err.splitlines() if " pair " in line] == [
        "seed 0 pair 0: parent 0.500 s 188.8 MB, change 0.500 s 80.9 MB",
        "seed 0 pair 1: parent 0.500 s 188.8 MB, change 0.500 s 80.9 MB"]


def test_verdict_line_per_seed_and_metric(bench_pairs, monkeypatch, tmp_path, capsys):
    """After each seed's pairs comes one line per metric naming the verdicts
    that hold: here a clear time gain, a memory regression, a set-up time
    whose parent runs spread too widely to tell, and an unchanged distance."""
    calls = collections.Counter()
    runs = {"parent": {"op_s_p50": [1.0, 1.02, 0.98, 1.0], "peak_rss_mb": [80.0] * 4,
                       "setup_s": [1.0, 2.0, 1.0, 2.0], "network_distance": [3.0] * 4},
            "change": {"op_s_p50": [0.5] * 4, "peak_rss_mb": [100.0] * 4,
                       "setup_s": [1.5] * 4, "network_distance": [3.0] * 4}}

    def run_once(checkout, workload, seed, seconds, core):
        side = checkout.name
        i = calls[seed, side]
        calls[seed, side] += 1
        return {**{name: values[i] for name, values in runs[side].items()},
                "correct": True}, {}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "revision", lambda path: {"commit": path.name})
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "eval-large",
                             "--seeds", "0", "7", "--pairs", "4",
                             "--out", str(tmp_path / "bench.json")]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if " pair " not in line]
    for seed in (0, 7):
        assert [line for line in lines if line.startswith(f"seed {seed} ")] == [
            f"seed {seed} op_s_p50: parent 1, change 0.5 (0.500x, 4/4 wins): gain_shown",
            f"seed {seed} peak_rss_mb: parent 80, change 100 (1.250x, 0/4 wins): regressed",
            f"seed {seed} setup_s: parent 1.5, change 1.5 (1.000x, 2/4 wins): unresolved",
            f"seed {seed} network_distance: parent 3, change 3 (1.000x, 0/4 wins): unchanged"]


@pytest.mark.parametrize("workload,pinned", [("eval-large", True), ("reorder-ea", True),
                                             ("sweep-grid", False)])
def test_jobs_1_pairs_run_pinned_to_one_core_in_turn(bench_pairs, monkeypatch, tmp_path,
                                                     workload, pinned):
    """A workload that perfbench runs at --jobs 1 runs both sides of a pair
    on one core, and the core moves to the next one this process may use at
    each pair; sweep-grid, at --jobs 2, runs unpinned. Each pair records its
    core."""
    runs = []

    def run_once(checkout, workload, seed, seconds, core):
        runs.append((seed, checkout.name, core))
        return {"op_s_p50": 1.0, "peak_rss_mb": 30.0, "correct": True}, {}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "revision", lambda path: {"commit": path.name})
    monkeypatch.setattr(bench_pairs.os, "sched_getaffinity", lambda pid: {3, 1})
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", workload,
                             "--seeds", "0", "7", "--pairs", "3", "--out", str(out)]) == 0
    cores = [1, 3, 1] if pinned else [None] * 3
    sides = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert runs == [(seed, side, core) for seed in (0, 7)
                    for core, order in zip(cores, sides) for side in order]
    seeds = json.loads(out.read_text())["seeds"]
    assert [pair["core"] for seed in ("0", "7") for pair in seeds[seed]["pairs"]] == cores * 2


def test_unknown_workload_rejected_before_any_run(bench_pairs, monkeypatch, tmp_path,
                                                  capsys):
    def run_once(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "revision", lambda path: {"commit": path.name})
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "eval-huge",
                          "--out", str(tmp_path / "bench.json")])
    assert exit_info.value.code == 2
    assert ("unknown workload 'eval-huge'; perfbench has eval-large, reorder-ea, sweep-grid"
            in capsys.readouterr().err)


def test_run_once_pins_only_its_child(bench_pairs, tmp_path):
    """run_once sets the affinity of the perfbench process it starts, not its
    own: a stand-in perfbench/run.py reports the cores it may use as its
    machine facts."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, os\n"
        "print('machine ' + json.dumps({'cores': sorted(os.sched_getaffinity(0))}))\n"
        "print(json.dumps({'correct': True, 'metrics': {'op_s_p50': {'value': 0.5}}}))\n")
    own = sorted(os.sched_getaffinity(0))
    metrics, machine = bench_pairs.run_once(tmp_path, "eval-large", 0, 1, own[-1])
    assert metrics == {"op_s_p50": 0.5, "correct": True}
    assert machine == {"cores": [own[-1]]}
    assert sorted(os.sched_getaffinity(0)) == own
    assert bench_pairs.run_once(tmp_path, "sweep-grid", 0, 1, None)[1] == {"cores": own}
