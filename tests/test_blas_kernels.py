"""The golden payloads and the outputs of the four commands are the same
bytes under each OpenBLAS kernel.

numpy's OpenBLAS picks its kernel for the CPU at start-up, and the
`OPENBLAS_CORETYPE` environment variable overrides that pick for one
process. Each kernel runs in a child process (this file, run as a script),
which reads the kernel that actually ran from OpenBLAS itself; a kernel that
this CPU cannot run is skipped.

    python tests/test_blas_kernels.py KERNEL WORKDIR

builds the golden payloads and runs `quantize`, `sweep`, `reorder` and `eval`
on the demo fixtures in WORKDIR, then writes WORKDIR/digests.json: the
kernel that ran and the SHA-256 of every payload and output file.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
KERNELS = ("SkylakeX", "Haswell", "Sandybridge")

# A small run of the README's config: every command and both sample sets.
RUN_CONFIG = {
    "model": "small_cnn", "calibration": "small_cnn_calib.ptqc",
    "granularity": {"mode": "method1", "rows_per_group": 2, "cols_per_group": 36},
    "calib": {"grid_size": 8, "iterations": 1, "samples": 16},
    "reorder": {"population": 4, "iterations": 1, "max_pairs": 4},
    "sweep": {"rows": [1, 2], "h_groups": [1, 2]},
    "eval": {"inputs": "small_cnn_eval.ptqc", "labels": "small_cnn_eval_labels.json"},
    "seed": 0, "out": "out",
}


def openblas_kernel():
    """The name of the kernel numpy's OpenBLAS runs in this process."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    if not found:
        return None
    corename = ctypes.CDLL(str(found[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def child(kernel, work):
    """Write work/digests.json for this process's kernel; the payloads and
    runs only when it is `kernel`."""
    work.mkdir(parents=True)
    ran = openblas_kernel()
    digests = {"kernel": ran, "files": {}}
    if ran == kernel:
        from golden_helpers import forward_payload, reorder_payload, scales_payload
        from subquant import cli
        from subquant.fixtures import write_all

        files = digests["files"]
        for name, payload in [("forward_small_cnn.json", forward_payload()),
                              ("scales_conv2.json", scales_payload()),
                              ("reorder_toy.json", reorder_payload())]:
            files[f"golden/{name}"] = sha256((json.dumps(payload, indent=2) + "\n").encode())
        os.chdir(work)
        write_all("demo")
        (work / "demo" / "run.json").write_text(json.dumps(RUN_CONFIG))
        for command in ("quantize", "sweep", "reorder", "eval"):
            if cli.main([command, "--config", "demo/run.json"]) != 0:
                raise SystemExit(f"{command} failed under {kernel}")
        for path in sorted((work / "out").rglob("*")):
            if path.is_file():
                files[str(path.relative_to(work))] = sha256(path.read_bytes())
    (work / "digests.json").write_text(json.dumps(digests, indent=2))


def test_outputs_are_the_same_bytes_under_each_openblas_kernel(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    runs = {}
    for kernel in KERNELS:
        work = tmp_path / kernel
        done = subprocess.run([sys.executable, __file__, kernel, str(work)],
                              env=dict(env, OPENBLAS_CORETYPE=kernel),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests = json.loads((work / "digests.json").read_text())
        if digests["kernel"] == kernel:
            runs[kernel] = digests["files"]
    if not runs:
        pytest.skip(f"OpenBLAS ran none of {KERNELS} on this CPU")
    golden = {f"golden/{path.name}": sha256(path.read_bytes())
              for path in sorted((TESTS / "golden").glob("*.json"))}
    first, *rest = runs
    assert {name: runs[first][name] for name in golden} == golden, first
    assert len(runs[first]) > len(golden)  # the commands wrote their outputs
    for kernel in rest:
        assert runs[kernel] == runs[first], (first, kernel)


if __name__ == "__main__":
    child(sys.argv[1], Path(sys.argv[2]))
