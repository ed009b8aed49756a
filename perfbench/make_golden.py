"""Write golden.json: trial digests of every workload at the default seed.

Run from the root of a checkout after a change that is meant to alter
results (a cost-model fix, a new agent default)::

    python3 perfbench/make_golden.py [WORKLOAD ...]

Named workloads are rewritten and the others kept; no name rewrites all.

A run at the default seed checks as many iterations as the file holds;
ITERATIONS is sized above what fits in one run on the build machine.
"""

from __future__ import annotations

import json
import sys

import run
from bench_gate import GOLDEN_PATH
from bench_workloads import WORKLOADS, run_iteration

ITERATIONS = 16


def main(argv: list) -> int:
    golden = json.loads(GOLDEN_PATH.read_text()) if argv else {}
    for workload in argv or WORKLOADS:
        its = [run_iteration(workload, run.DEFAULT_SEED, i) for i in range(ITERATIONS)]
        errors = [e for it in its for e in it.errors]
        if errors:
            print(f"{workload}: {errors}", file=sys.stderr)
            return 1
        golden[workload] = [it.digests for it in its]
        print(f"{workload}: {ITERATIONS} iterations")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
