"""Process set-up shared by the benchmark's entry points; import it first.

Importing this module pins BLAS and OpenMP to one thread, which must
happen before numpy loads: with several BLAS threads a 2 ms client turn
can take 50 ms. It also puts the checkout's ``src/`` first on
``sys.path`` so the benchmark runs the source tree it sits in, and it
stops the process (exit code 1, nothing on stdout) when that tree is
missing.
"""

import os
import sys
from pathlib import Path

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

os.environ.update(THREAD_ENV)

if not (SRC / "zksplit" / "__init__.py").is_file():
    sys.exit(f"perfbench: no zksplit source tree at {SRC}")
sys.path.insert(0, str(SRC))
