"""What a result was measured on, and control of the BLAS thread count.

numpy and scipy each ship their own OpenBLAS; ``BlasThreads`` finds every
OpenBLAS loaded into this process and reads or sets its thread count through
its exported ``openblas_{get,set}_num_threads`` entry points (with the
prefixes and suffixes the scipy-openblas wheels use).
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import sys


def _openblas_paths() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _symbol(lib, stem: str):
    for prefix in ("scipy_", ""):
        for suffix in ("64_", "_64_", ""):
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


class BlasThreads:
    """Thread-count control for the OpenBLAS libraries loaded so far."""

    def __init__(self):
        self._libs = []
        for path in _openblas_paths():
            lib = ctypes.CDLL(path)
            get = _symbol(lib, "openblas_get_num_threads")
            put = _symbol(lib, "openblas_set_num_threads")
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                put.restype = None
                self._libs.append((os.path.basename(path), get, put))

    @property
    def controllable(self) -> bool:
        return bool(self._libs)

    def get(self) -> dict[str, int]:
        return {name: int(get()) for name, get, _ in self._libs}

    def threads(self) -> int:
        """Largest thread count over the loaded libraries (0 if none found)."""
        return max(self.get().values(), default=0)

    @contextlib.contextmanager
    def limit(self, n: int):
        before = self.get()
        for _, _, put in self._libs:
            put(n)
        try:
            yield
        finally:
            for name, _, put in self._libs:
                put(before[name])


def _blas_info(show_config) -> str:
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str:
    """HEAD of a git checkout at ``root``, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def describe(root: str, blas: BlasThreads) -> dict:
    import numpy
    import scipy

    import pvga._kernels

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_info(numpy.show_config),
        "scipy_blas": _blas_info(getattr(scipy, "show_config", None)),
        "blas_threads": blas.get(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "kernel_backend": pvga._kernels.BACKEND,
        "git_commit": git_commit(root),
    }
