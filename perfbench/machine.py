"""The environment stamp, and the BLAS thread count read back from outside.

numpy and scipy each bundle their own OpenBLAS, and ``cho_factor`` runs
on scipy's copy, so both are asked for the thread count they will use.
``mvtc.PipelineConfig.threads`` cannot be relied on for this: without
``threadpoolctl`` it changes nothing.  The thread variables are set by the
benchmark before numpy is first imported.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (package whose wheel bundles the copy, library glob, symbol prefix)
OPENBLAS_COPIES = (
    ("numpy", "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_{}64_"),
    ("scipy", "scipy.libs/libscipy_openblas-*.so", "scipy_openblas_{}"),
)


def pin_threads():
    """Ask every BLAS/OpenMP pool for one thread; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def openblas_copies() -> list[dict]:
    """Version and effective thread count of each bundled OpenBLAS copy.

    A copy that cannot be found or queried is reported with ``threads``
    set to None, which the benchmark counts as a failed check.
    """
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's copy, as mvtc.solver does)

    packages = {"numpy": numpy, "scipy": scipy}
    out = []
    for package, pattern, symbol in OPENBLAS_COPIES:
        site = Path(packages[package].__file__).resolve().parent.parent
        found = sorted(glob.glob(str(site / pattern)))
        entry = {"package": package, "library": None, "version": None, "threads": None}
        if found:
            lib = ctypes.CDLL(found[0])
            get_threads = getattr(lib, symbol.format("get_num_threads"))
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config = getattr(lib, symbol.format("get_config"))
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            entry.update(
                library=Path(found[0]).name,
                version=get_config().decode().strip(),
                threads=int(get_threads()),
            )
        out.append(entry)
    return out


def last_level_cache() -> str:
    """Size of the highest-level CPU cache as the kernel reports it, or 'unknown'."""
    best = (0, "unknown")
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(Path(index, "level").read_text())
            size = Path(index, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size))
    return best[1]


def stamp() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc": last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "openblas": openblas_copies(),
    }


def threads_pinned(env: dict) -> bool:
    return len(env["openblas"]) == len(OPENBLAS_COPIES) and all(
        copy["threads"] == 1 for copy in env["openblas"]
    )
