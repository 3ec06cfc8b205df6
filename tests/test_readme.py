"""README's "Library use" examples run as written.

The five ```python blocks run in order, in one namespace, in a directory
that holds the demo fixtures (`python -m subquant.fixtures demo/`) and the
`out/quantized` bundle of a `subquant quantize` run on README's own run
config, so a changed signature cannot leave them stale.
"""

import re
from pathlib import Path

from subquant import cli
from subquant.fixtures import write_all

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.S | re.M)


def test_library_use_blocks_run(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    blocks = fenced(text, "python")
    [config] = fenced(text, "json")
    assert len(blocks) == 5
    monkeypatch.chdir(tmp_path)
    write_all("demo")
    Path("demo/run.json").write_text(config)
    assert cli.main(["quantize", "--config", "demo/run.json"]) == 0
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {i + 1}", "exec"), namespace)
    printed = capsys.readouterr().out
    assert "dict_keys(['conv2', 'conv3', 'conv4', 'conv5'])" in printed
    assert "fc (64, 10)" in printed  # the last block walks the 64 calibration samples
