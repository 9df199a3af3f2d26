"""Schema self-test of the benchmark, with no timing assertions.

    python3 perfbench/selftest.py

Runs every workload in ``--quick`` mode, traced and untraced, and checks that
the last stdout line has exactly the keys and metric names (with units) that
BENCHMARK.json declares, that every run passed its output check, and that
the benchmark refuses to run in a tree that has no eclab sources.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_schema(spec):
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload["name"], "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = _run(ROOT, *args)
            if proc.returncode != 0:
                raise AssertionError(f"{args} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload["name"], key, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert set(m) == {"value", "unit"} and isinstance(m["value"], float), (name, m)
            print(f"ok  {workload['name']:<18} trace={trace}  {len(got)} metrics")


def check_refuses_without_sources(spec):
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = pathlib.Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        proc = _run(bare, "--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    print("ok  refuses to run without eclab sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    check_schema(spec)
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
