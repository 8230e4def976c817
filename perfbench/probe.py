"""Time one cold set-up of a workload in a fresh interpreter; print seconds.

    python3 perfbench/probe.py census-cp4 program
    python3 perfbench/probe.py census-cp4 yardstick

Set-up is the import of the package modules the workload uses, plus
building or parsing and validating every manifold it uses.  The clock
starts before the package import and is paused while the benchmark's own
modules load.
"""

import os
import sys
import time

yardstick = sys.argv[2] == "yardstick"
t0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
if yardstick:
    import perfbench.yardstick  # noqa: E402,F401  (timed: the cold package import)
else:
    import bundlecensus  # noqa: E402,F401

t1 = time.perf_counter()
from perfbench.workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](seed=0)
t2 = time.perf_counter()
workload.load(yardstick)
t3 = time.perf_counter()
print((t1 - t0) + (t3 - t2))
