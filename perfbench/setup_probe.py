"""Child process that measures set-up: import qcs and its dependencies,
build the first trial's inputs, print "ready" and exit.

    python3 perfbench/setup_probe.py <workload> <seed> <work_dir>

run.py starts it with the BLAS thread variables already pinned and times
it from process start to the "ready" line.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import workloads  # noqa: E402  (imports qcs, numpy and scipy)

if __name__ == "__main__":
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.prepare(workloads.WORKLOADS[name], seed, work_dir)
    print("ready", flush=True)
