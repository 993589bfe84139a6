"""Time one cold set-up of a workload in this fresh process.

Prints the seconds from importing ctlab to the end of ``workloads.setup``:
module import, jet tables, catalog loads with certification and conformal
rescaling, as a user pays them on every run.

    python3 ctbench/setup_probe.py <workload> <seed>
"""

import env  # noqa: F401  (caps BLAS threads and sets sys.path; before numpy)

import sys
import time

import numpy  # noqa: F401  (interpreter start-up, not ctlab set-up)

t0 = time.perf_counter()
import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
