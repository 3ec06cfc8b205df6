"""Child process of the benchmark: one set-up, or one CLI op.

    python3 perfbench/child.py setup WORKLOAD SEED DIR
    python3 perfbench/child.py op RESULT_JSON TRACE JOBS -- CLI_ARGS...

Both import subquant from `src/` of the checkout they run in and refuse to
run against any other copy. `setup` writes the workload's generated inputs
and run config into DIR, plus `facts.json` with the numpy and BLAS facts.
`op` times `subquant.cli.main(CLI_ARGS)` in-process, with the span tracer
installed when TRACE is 1, writes the exit code, the op's wall time and the
per-layer metrics to RESULT_JSON, and exits with the CLI's exit code.
"""

import json
import platform
import sys
import time
from pathlib import Path

import spantrace
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def import_subquant():
    if not (SRC / "subquant" / "cli.py").is_file():
        sys.exit(f"perfbench: no subquant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import subquant.cli
    if Path(subquant.cli.__file__).resolve().parent != SRC / "subquant":
        sys.exit(f"perfbench: imported subquant from {subquant.cli.__file__}, not {SRC}")
    return subquant


def machine_facts():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", "")}


def cmd_setup(workload, seed, out_dir):
    import_subquant()
    out = Path(out_dir)
    workloads.WORKLOADS[workload].write_inputs(out, int(seed))
    (out / "facts.json").write_text(json.dumps(machine_facts()))


def cmd_op(result_path, trace, jobs, argv):
    subquant = import_subquant()
    tracer = None
    if trace == "1":
        tracer = spantrace.install()
    start = time.perf_counter()
    code = subquant.cli.main(argv)
    op_s = time.perf_counter() - start
    result = {"exit_code": code, "op_s": op_s}
    if tracer is not None:
        result["per_layer"] = tracer.summary(jobs=int(jobs))
    Path(result_path).write_text(json.dumps(result))
    return code


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 4:
        cmd_setup(*argv[1:])
    elif argv[:1] == ["op"] and len(argv) >= 5 and argv[4] == "--":
        sys.exit(cmd_op(argv[1], argv[2], argv[3], argv[5:]))
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
