"""Test-run header: the numpy version, the BLAS library and its thread count,
so that every quoted test time carries the thread count it ran with."""

import ctypes
import glob
import os

import numpy as np


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _blas_threads() -> str:
    """Threads of the OpenBLAS that numpy wheels bundle, asked from the
    library itself; the OpenBLAS and OpenMP variables as a fallback."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return str(get())
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if k in os.environ}
    return f"unknown (env {env or 'unset'})"


def pytest_report_header(config):
    return (f"numpy {np.__version__}, BLAS {_blas_name()}, "
            f"BLAS threads {_blas_threads()}")
