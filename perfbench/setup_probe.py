"""Time one cold set-up of a workload: import srak and build once.

    python3 perfbench/setup_probe.py <workload>

run.py starts this in a fresh interpreter several times and reports the
median as ``setup_s``; it prints the seconds on stdout.
"""

import sys
import time

import run

if __name__ == "__main__":
    import_s = run.import_srak()
    import workloads as W

    workload = W.WORKLOADS[sys.argv[1]]()
    start = time.perf_counter()
    workload.build()
    print(import_s + time.perf_counter() - start)
