"""The header every benchmark run prints: what ran, where, and how fast the
machine was at the time. The speed probe is recorded only; no metric is
normalised by it."""
from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import input_sizes


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; a checkout that
    is not a repository reads "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> tuple[str, int | None]:
    """BLAS name from numpy's build config and the thread count the loaded
    OpenBLAS reports (None when it cannot be asked)."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    name = deps.get("blas", {}).get("name", "unknown")
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def speed_probe() -> dict[str, float]:
    """Median of 5 timings each of a fixed pure-Python loop and a fixed
    small-matmul loop, in ms."""
    a = np.full((32, 32), 0.5)

    def python_loop():
        total = 0
        for i in range(100_000):
            total += i * i
        return total

    def matmul_loop():
        b = a
        for _ in range(2_000):
            b = a @ a
        return b

    out = {}
    for name, fn in (("python_loop_ms", python_loop), ("matmul_32_loop_ms", matmul_loop)):
        times = []
        for _ in range(5):
            t0 = perf_counter()
            fn()
            times.append((perf_counter() - t0) * 1e3)
        out[name] = round(statistics.median(times), 3)
    return out


def run_header(root: Path, av, wl, args, nproc: int) -> dict:
    blas, threads = blas_info()
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": input_sizes(wl, av.model.ModelConfig),
        "probe": speed_probe(),
    }
