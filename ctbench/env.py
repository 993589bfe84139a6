"""Process set-up shared by the benchmark's entry points.

Import this module before numpy: it caps the BLAS thread pools at the
number of usable cores and puts the checkout's ``src/`` first on
``sys.path``, so the benchmark always measures the ctlab of the checkout
it sits in and never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

if not (SRC / "ctlab" / "__init__.py").is_file():
    sys.exit(f"ctbench: no ctlab sources under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))
