"""Record the reference output digests the benchmark checks every op against.

    python3 perfbench/record_references.py [WORKLOAD ...]

For every input key of every named workload (default: all), runs the
set-up once and one untraced op at `--jobs 1`, and stores the digests of
the set-up files and of the op's outputs in `reference_digests.json`. The
benchmark itself runs `sweep-grid` at jobs 2, so its check also covers the
rule that outputs do not depend on the jobs value. Rerun only after
verifying by hand that a change to the outputs is intended.
"""

import json
import shutil
import sys
import time

from run import REFERENCES, ROOT, RUN_LIMIT_S, run_op, set_up, tree_digests
from workloads import INPUT_KEYS, WORKLOADS


def record(workload):
    digests = {}
    for key in range(INPUT_KEYS):
        work = ROOT / ".perfbench_work" / f"record-{workload.name}-{key}"
        shutil.rmtree(work, ignore_errors=True)
        (work / "logs").mkdir(parents=True)
        try:
            deadline = time.monotonic() + RUN_LIMIT_S
            set_up(workload, key, work / "setup", work / "logs", deadline)
            op = run_op(workload, work / "setup", work / "op", work / "logs",
                        trace=False, deadline=deadline, jobs=1)
            if op["exit_code"] != 0 or None in op["digests"].values():
                raise RuntimeError(f"{workload.name} key {key}: op failed {op}")
            digests[str(key)] = {"setup": tree_digests(work / "setup"),
                                 "op": op["digests"]}
            print(f"{workload.name} key {key}: {op['op_s']:.2f} s", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return digests


def main(names):
    table = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for name in names or sorted(WORKLOADS):
        table[name] = record(WORKLOADS[name])
        REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
