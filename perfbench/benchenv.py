"""Process settings shared by the benchmark's entry points.

Import this before numpy: OpenBLAS reads its thread count when it loads.
One BLAS thread keeps run-to-run spread low on a shared machine and is within
any machine's core count; every result records it.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
