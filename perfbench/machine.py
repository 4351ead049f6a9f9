"""Machine facts recorded beside every result.

BLAS threading is reported, never changed: the default OpenBLAS thread count
is part of what the benchmark measures (small matrices pay for it).
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas(package) -> dict:
    """Name, version, config string and live thread count of the OpenBLAS a
    wheel bundles in ``<package>.libs``; empty when there is none."""
    libdir = os.path.join(os.path.dirname(package.__file__), "..", f"{package.__name__}.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        facts = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                facts["threads"] = threads()
                facts["config"] = config().decode()
                break
        return facts
    return {}


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "numpy_openblas": _openblas(numpy),
        "scipy_openblas": _openblas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
