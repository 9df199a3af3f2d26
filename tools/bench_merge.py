"""Merge one commit's perfbench results into a committed ``BENCH_<label>.json``.

    python3 tools/bench_merge.py --label main [--in .bench_out] [--out BENCH_main.json]

Reads every ``result-*.json`` that ``perfbench/run.py`` wrote into the input
directory; they must all come from one commit. Untraced results (``--trace
0``) give the end-to-end metrics, traced ones (``--trace 1``) the per-layer
metrics. Per workload, every metric keeps its value for each seed and their
median, and the runs keep their attempted and failed counts. The machine
facts (with the matmul peak) come from an untraced result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys


class MergeError(ValueError):
    """The results cannot be merged into one record."""


def _split(result):
    # {workload: {metric: (value, unit)}}; ``--workload all`` prefixes names
    ctx = result["context"]
    out = {}
    for key, m in result["metrics"].items():
        name, metric = key.split("/", 1) if ctx["workload"] == "all" else (ctx["workload"], key)
        out.setdefault(name, {})[metric] = (m["value"], m["unit"])
    return out


def _workload(workloads, name):
    return workloads.setdefault(
        name, {"attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {}}
    )


def merge(results, label):
    """One BENCH record from perfbench result dicts of one commit."""
    if not results:
        raise MergeError("no results to merge")
    commits = {r["context"]["machine"].get("commit") for r in results}
    if len(commits) != 1:
        raise MergeError(f"results come from several commits: {sorted(map(str, commits))}")
    untraced = [r for r in results if not r["context"]["trace"]]
    if not untraced:
        raise MergeError("no untraced (--trace 0) result, so no end-to-end metrics")
    workloads = {}
    for r in sorted(results, key=lambda r: (r["context"]["trace"], r["context"]["seed"])):
        ctx = r["context"]
        section = "per_layer" if ctx["trace"] else "end_to_end"
        for name, metrics in _split(r).items():
            for metric, (value, unit) in metrics.items():
                entry = _workload(workloads, name)[section].setdefault(
                    metric, {"unit": unit, "by_seed": {}}
                )
                entry["by_seed"][str(ctx["seed"])] = value
        for name, runs in ctx["runs"].items():
            w = _workload(workloads, name)
            w["attempted"] += len(runs)
            w["failed"] += sum(run.get("error") is not None for run in runs)
    for w in workloads.values():
        for section in ("end_to_end", "per_layer"):
            for entry in w[section].values():
                entry["median"] = statistics.median(entry["by_seed"].values())
    return {
        "label": label,
        "commit": commits.pop(),
        "machine": untraced[0]["context"]["machine"],
        "seconds": sorted({r["context"]["seconds"] for r in results}),
        "workloads": dict(sorted(workloads.items())),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--in", dest="inputs", default=".bench_out")
    parser.add_argument("--out", help="default: BENCH_<label>.json")
    args = parser.parse_args(argv)
    paths = sorted(pathlib.Path(args.inputs).glob("result-*.json"))
    try:
        record = merge([json.loads(p.read_text()) for p in paths], args.label)
    except MergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = pathlib.Path(args.out or f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out} from {len(paths)} results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
