"""Process settings shared by the benchmark's entry points.

Import this module before numpy: it pins the BLAS and OpenMP pools to one
thread, a benchmark setting (the package has no such option) that keeps
timings steady on a 2-CPU box.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path("perfbench")  # relative to ROOT, so recorded paths do not depend on the checkout
WORK = BENCH / "_work"
GOLDEN = BENCH / "golden.json"


def import_package():
    """Import oddshift from this checkout's ``src/``, or exit with a non-zero code.

    Also makes the checkout root the working directory, so the paths the
    workloads write into their outputs are the same in every checkout.
    """
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    try:
        import oddshift
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import oddshift from {SRC}: {exc}")
    if Path(oddshift.__file__).resolve().parent != SRC / "oddshift":
        sys.exit(f"perfbench: oddshift imported from {oddshift.__file__}, not from {SRC}")
    return oddshift


def _openblas_config() -> str:
    """Runtime OpenBLAS configuration (version and CPU kernel), as numpy loaded it."""
    import ctypes
    import glob

    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def environment() -> dict:
    """Versions and settings every result is recorded with."""
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_config(),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def fingerprint(env: dict) -> dict:
    """The part of the environment that recorded golden values depend on."""
    return {key: env[key] for key in ("python", "numpy", "scipy", "openblas", "machine")}
