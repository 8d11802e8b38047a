"""Process environment shared by the driver and the server subprocess.

Call :func:`pin` before NumPy is imported: BLAS reads its thread count at
load time, and on a 2-core box leaving it at the default moved bulk
throughput 2.5x between otherwise identical runs.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
TEMP_DIR = OUT_DIR / "tmp"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin() -> None:
    """One BLAS thread, compiled kernels cached inside the checkout, and
    the program under test importable from ``src/``."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    # The benchmark may only write inside its checkout; the program's
    # default kernel cache is ~/.cache and its scratch space the system's.
    os.environ["REPRO_KERNEL_CACHE"] = str(OUT_DIR / "kernels")
    TEMP_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TEMP_DIR)
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"the benchmark measures the program in {source}, which is missing")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
