"""eclab benchmark: end-to-end metrics from child processes, per-layer metrics
from a traced in-process run.

    python3 perfbench/run.py --workload attrval-h64 --seed 1 --seconds 35 --trace 0

Run it from anywhere inside a checkout; it measures the checkout's ``src``.
``--trace 0`` launches fresh ``python -m eclab run`` processes back to back
for about ``--seconds`` and prints the median iters_per_s, setup_s and
peak_rss_mb. ``--trace 1`` runs the same workload in this process, untraced and
under spans in turn, then fixed-shape kernel timings, and prints the
per-layer metrics with the tracing overhead. ``--workload all`` runs every workload in turn.
``--quick`` shrinks every workload to toy size (schema checks only). The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

import children
import machine
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_CHILDREN = 2  # so setup_s is always a median of several set-ups
DEADLINE_S = 170.0  # one invocation per workload must end within 180 s


def measure_untraced(workload, seed, seconds, env, work_dir, deadline):
    """Child processes back to back while the next one still fits in
    ``seconds`` (judged by the longest so far), at least ``MIN_CHILDREN``."""
    runs = []
    start = time.perf_counter()
    while True:
        timeout = max(1.0, deadline - time.perf_counter())
        runs.append(children.run_child(workload, seed, work_dir / f"child{len(runs)}", env, ROOT, timeout))
        now = time.perf_counter()
        longest = max(r.wall_s for r in runs)
        if now + longest > deadline:
            break
        if len(runs) >= MIN_CHILDREN and now - start + longest > seconds:
            break
    ok = [r for r in runs if r.error is None]
    metrics = {}
    if ok:
        metrics = {
            "iters_per_s": (statistics.median(r.iters_per_s for r in ok), "iter/s"),
            "setup_s": (statistics.median(r.setup_s for r in ok), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in ok), "MB"),
        }
    return metrics, runs


def measure_traced(workload, seed, seconds, work_dir, deadline, quick):
    import kernels  # numpy is imported only after the thread variables are set
    import tracing

    sys.path.insert(0, str(SRC))
    import eclab.runner  # noqa: F401  (loads every module the tracer wraps)
    import eclab

    if not pathlib.Path(eclab.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported eclab from {eclab.__file__}, not from {SRC}")

    records, tracers, summaries = [], [], []

    def one_run(kind):
        out_dir = work_dir / f"{kind}{len(records)}"
        tracer = tracing.Tracer() if kind == "traced" else None
        t0 = time.perf_counter()
        summary = None
        try:
            tracing.run_in_process(eclab, workload, seed, out_dir, tracer)
            summary, error = workloads.check_run(workload, out_dir)
        except Exception as exc:  # a crashing run is counted failed, not dropped
            error = f"{type(exc).__name__}: {exc}"
        shutil.rmtree(out_dir, ignore_errors=True)
        records.append({"kind": kind, "error": error})
        return time.perf_counter() - t0, (summary if error is None else None), tracer

    # The first run warms imports, the BLAS pool and the allocator's heap, so
    # the untraced and traced runs after it compare like with like; their
    # difference is the tracing overhead. Pairs alternate their order
    # (U T, T U, ...) so a drift in machine speed cancels out.
    start = time.perf_counter()
    longest, _, _ = one_run("warmup")
    rates = {"untraced": [], "traced": []}
    order = ["untraced", "traced"]
    while True:
        for kind in order:
            wall, summary, tracer = one_run(kind)
            longest = max(longest, wall)
            if summary is not None:
                rates[kind].append(workload.iterations / summary["wall_seconds_total"])
                if tracer is not None:
                    tracers.append(tracer)
                    summaries.append(summary)
        order.reverse()
        now = time.perf_counter()
        if now + 2 * longest > deadline or now - start + 2 * longest > seconds:
            break

    metrics = {}
    if tracers and rates["untraced"]:
        metrics.update(tracing.layer_metrics(tracers, summaries))
        untraced = statistics.median(rates["untraced"])
        traced = statistics.median(rates["traced"])
        metrics["trace.untraced_iters_per_s"] = (untraced, "iter/s")
        metrics["trace.traced_iters_per_s"] = (traced, "iter/s")
        metrics["trace.overhead_iters_per_s"] = (traced - untraced, "iter/s")
        metrics.update(kernels.kernel_metrics(eclab, quick))
    return metrics, records


def run_workload(name, args, env, deadline):
    workload = workloads.resolve(name, args.quick)
    work_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        if args.trace:
            metrics, records = measure_traced(workload, args.seed, args.seconds, work_dir, deadline, args.quick)
        else:
            metrics, runs = measure_untraced(workload, args.seed, args.seconds, env, work_dir, deadline)
            records = [
                {"kind": "untraced", "error": r.error, "wall_s": r.wall_s, "train_s": r.train_s,
                 "peak_rss_mb": r.peak_rss_mb}
                for r in runs
            ]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return metrics, records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="toy sizes, for the schema self-test")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "eclab" / "__main__.py").is_file():
        print(f"error: no eclab sources under {SRC}", file=sys.stderr)
        return 2
    # numpy reads these when it is first imported, here and in every child
    threads = machine.nproc()
    env = children.child_env(SRC, threads)
    os.environ.update({var: env[var] for var in children.THREAD_VARS})
    os.environ.pop("ECLAB_DETERMINISTIC", None)
    OUT.mkdir(exist_ok=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, records = {}, {}
    for name in names:
        deadline = time.perf_counter() + DEADLINE_S
        found, records[name] = run_workload(name, args, env, deadline)
        for metric, (value, unit) in found.items():
            print(f"{name:<18} {metric:<40} {value:>14.6g} {unit}")
            metrics[metric if len(names) == 1 else f"{name}/{metric}"] = {"value": float(value), "unit": unit}

    attempted = sum(len(r) for r in records.values())
    errors = [rec["error"] for r in records.values() for rec in r if rec["error"] is not None]
    for error in errors:
        print(f"run failed: {error}", file=sys.stderr)
    context = {
        "machine": machine.facts(ROOT, threads),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "runs": records,
        "elapsed_s": time.perf_counter() - started,
    }
    if not args.trace:
        import kernels  # the roofline every result is read against

        context["machine"]["matmul_peak_gflops"] = {
            "f32": kernels.matmul_peak_gflops("float32", 256 if args.quick else 2048),
            "f64": kernels.matmul_peak_gflops("float64", 256 if args.quick else 2048),
        }
    result = {
        "correct": not errors and bool(metrics),
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps({"context": context, **result}, indent=2) + "\n"
    )
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
