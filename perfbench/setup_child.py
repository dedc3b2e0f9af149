"""Time one fresh process's set-up: ``import chainring`` plus building the
rings and extensions of one workload, or, with ``reference``, importing a
fixed set of standard-library modules that chainring does not use.  Prints
the seconds on stdout.

Usage: python3 perfbench/setup_child.py <workload>|reference
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

if sys.argv[1] == "reference":
    import argparse, decimal, email.parser, fractions, json, statistics, xml.dom.minidom  # noqa: E401, F401
else:
    import workloads  # imports chainring

    workloads.WORKLOADS[sys.argv[1]].build_rings()
print(f"{time.perf_counter() - T0:.9f}")
