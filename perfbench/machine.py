"""Machine facts recorded with every result, and the BLAS thread pin.

Both commits of a comparison must run with the same BLAS thread count:
OpenBLAS defaults to one thread per CPU, which on a 2-CPU box makes small
matrix products slower and noisier than one thread does.  The pin is an
environment variable, so it must be set before numpy is first imported;
child processes inherit it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    pinned = all(os.environ.get(var) == str(BLAS_THREADS) for var in BLAS_VARS)
    if "numpy" in sys.modules and not pinned:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _openblas():
    """Config string and thread count of each OpenBLAS loaded in this process."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            try:
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            info["config"] = get_config().decode()
            info["threads"] = get_threads()
            break
        out.append(info)
    return out


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return out


def facts():
    """Call after numpy, scipy and thetacf are imported."""
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "openblas": _openblas(),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()
