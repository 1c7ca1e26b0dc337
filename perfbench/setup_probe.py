"""Time the set-up of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py plan-set

Prints the seconds from the start of this script to the end of the
workload's set-up: imports, loading the frozen inputs, building worlds and
loading the model.  run.py starts it a few times and reports the median.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

if __name__ == "__main__":
    w = workloads.WORKLOADS[sys.argv[1]]()
    w.setup()
    w.close()
    print(time.perf_counter() - T0)
