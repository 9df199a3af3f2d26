"""Facts recorded with every result: the machine, the BLAS and the tree."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess


def nproc():
    return len(os.sched_getaffinity(0))


def _openblas_runtime():
    """Thread count and config string of the OpenBLAS numpy has loaded, or
    ``(None, None)`` when numpy links another BLAS."""
    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line)
    except (OSError, StopIteration):
        return None, None
    lib = ctypes.CDLL(path)
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        try:
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            get_config = getattr(lib, f"{prefix}_get_config{suffix}")
        except AttributeError:
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return get_threads(), get_config().decode()
    return None, None


def _git(root, *args):
    out = subprocess.run(
        ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() if out.returncode == 0 else None


def tree_state(root):
    """Commit and dirtiness of the measured tree; a checkout that is not a
    git repository (an exported tree) reports ``None`` for both."""
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def facts(root, threads):
    import numpy as np  # after the caller pinned the thread variables

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads, blas_config = _openblas_runtime()
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "threads_env": threads,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "blas_config": blas_config,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": "float32",
        **tree_state(root),
    }
