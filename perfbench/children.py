"""Untraced measurement: one fresh ``python -m eclab run`` process per run.

Everything is read from outside the program: the child's wall time around
``wait4``, its peak RSS from the returned rusage, and the run's own
``summary.json`` / ``metrics.csv``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from workloads import check_run

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env(src_dir, threads):
    """The measured environment: the checkout's ``src`` on PYTHONPATH (eclab
    is not installed), BLAS/OpenMP pinned to ``threads``, default float32."""
    env = dict(os.environ)
    env.pop("ECLAB_DETERMINISTIC", None)
    env["PYTHONPATH"] = str(src_dir)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


@dataclass
class ChildRun:
    error: str | None  # None when the run passed ``check_run``
    iterations: int
    wall_s: float  # process start to reaped exit
    train_s: float | None  # summary.json wall_seconds_total
    peak_rss_mb: float

    @property
    def iters_per_s(self):
        return self.iterations / self.train_s

    @property
    def setup_s(self):
        """Interpreter start, imports, config, meaning space, agent init,
        summary write and exit: everything outside the training loop."""
        return self.wall_s - self.train_s


def run_child(workload, seed, out_dir, env, cwd, timeout_s):
    """Run one workload to completion in a child process and check it."""
    cmd = [sys.executable, "-m", "eclab", "run", "--preset", workload.preset]
    cmd += ["--seed", str(seed), "--out", str(out_dir)]
    for key, value in workload.overrides.items():
        cmd += ["--set", f"{key}={value}"]
    out_dir.mkdir(parents=True)
    with open(out_dir / "child.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=log)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    summary, error = check_run(workload, out_dir)
    if proc.returncode != 0:
        tail = (out_dir / "child.log").read_text(errors="replace")[-500:]
        error = f"exit code {proc.returncode}: {tail}"
    train = summary.get("wall_seconds_total") if summary else None
    shutil.rmtree(out_dir)
    return ChildRun(error, workload.iterations, wall, train, usage.ru_maxrss / 1024.0)
