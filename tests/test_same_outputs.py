"""tools/same_outputs.py: the tree comparison and the exit status."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


@pytest.fixture
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


FILES = {"runs/a/summary.json": b"{}", "runs/b/bundle/tensors.bin": b"\x00\x01",
         "fixtures/calib.ptqc": b"PTQC"}


@pytest.mark.parametrize("edit,first", [
    (lambda files: None, None),
    (lambda files: files.update({"runs/b/bundle/tensors.bin": b"\x00\x02",
                                 "runs/a/summary.json": b"{ }"}), "runs/a/summary.json"),
    (lambda files: files.pop("runs/b/bundle/tensors.bin"), "runs/b/bundle/tensors.bin"),
    (lambda files: files.update({"runs/a/extra.csv": b""}), "runs/a/extra.csv")],
    ids=["identical", "two-differ", "missing", "extra"])
def test_first_difference_names_the_first_file_in_sorted_order(same_outputs, tmp_path,
                                                               edit, first):
    changed = dict(FILES)
    edit(changed)
    a = write_tree(tmp_path / "a", FILES)
    b = write_tree(tmp_path / "b", changed)
    assert same_outputs.first_difference(a, b) == first
    assert same_outputs.first_difference(b, a) == first


@pytest.mark.parametrize("differ", [False, True])
def test_exit_status_follows_the_comparison(same_outputs, tmp_path, monkeypatch, capsys,
                                            differ):
    """Each side's tree, written by a stubbed run, is compared: 0 when they
    match, 1 naming the first differing file."""
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "subquant").mkdir(parents=True)

    def run_side(checkout, side_dir):
        changed = {**FILES, "runs/a/summary.json": b"[]"} if differ and \
            checkout.name == "change" else FILES
        write_tree(side_dir / "tree", changed)

    monkeypatch.setattr(same_outputs, "run_side", run_side)
    code = same_outputs.main(["--parent", str(tmp_path / "parent"), "--change",
                              str(tmp_path / "change"), "--work", str(tmp_path / "work")])
    assert code == (1 if differ else 0)
    if differ:
        assert "outputs differ, first in runs/a/summary.json" in capsys.readouterr().err


def test_checkout_without_package_is_a_usage_error(same_outputs, tmp_path):
    (tmp_path / "parent" / "src" / "subquant").mkdir(parents=True)
    with pytest.raises(SystemExit) as exc:
        same_outputs.main(["--parent", str(tmp_path / "parent"),
                           "--change", str(tmp_path / "change")])
    assert exc.value.code == 2
