"""tools/bench_pairs.py: the record it writes and its exit status."""

import collections
import importlib.util
import json
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

    def run_once(checkout, workload, seed, seconds):
        side = checkout.name
        pair = calls[seed, side]
        calls[seed, side] += 1
        return {"op_s_p50": 1.0, "correct": (str(seed), pair, side) != broken}, {"cores": 2}

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
