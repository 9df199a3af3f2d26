"""Merge one commit's perfbench results into a committed ``BENCH_<label>.json``.

    python3 tools/bench_merge.py --label main [--in .bench_out] [--out BENCH_main.json]
                                 [--extra EXTRA.json]

Reads every ``result-*.json`` that ``perfbench/run.py`` wrote into the input
directory; they must all come from one commit. Untraced results (``--trace
0``) give the end-to-end metrics, traced ones (``--trace 1``) the per-layer
metrics. Per workload, every metric keeps its value for each seed, their
median and their lower and upper quartiles (``q1``, ``q3``; interpolated
linearly between seeds, as numpy's default percentile, and equal to the
value when there is one seed), and the runs keep their attempted and failed
counts. The machine facts (with the matmul peak) come from an untraced
result.

``--extra`` adds numbers perfbench has no workload for: a JSON object
``{name: {"value": number, "unit": str, "command": str}}``, where
``command`` is the exact command that measured the value. It is copied
into the record's ``extra`` block.
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


def check_extra(extra):
    """``extra`` if it maps names to ``{value, unit, command}``, else raise."""
    if not isinstance(extra, dict):
        raise MergeError("extra must be a JSON object of named entries")
    for name, entry in extra.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit", "command"}:
            raise MergeError(f"extra {name!r} must have exactly value, unit and command")
        if isinstance(entry["value"], bool) or not isinstance(entry["value"], (int, float)):
            raise MergeError(f"extra {name!r}: value must be a number")
        if not (isinstance(entry["unit"], str) and isinstance(entry["command"], str)):
            raise MergeError(f"extra {name!r}: unit and command must be strings")
    return extra


def merge(results, label, extra=None):
    """One BENCH record from perfbench result dicts of one commit, plus the
    ``extra`` entries if any."""
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
                values = list(entry["by_seed"].values())
                entry["median"] = statistics.median(values)
                if len(values) == 1:
                    values *= 2  # quantiles needs two points; both quartiles are the value
                entry["q1"], _, entry["q3"] = statistics.quantiles(values, method="inclusive")
    record = {
        "label": label,
        "commit": commits.pop(),
        "machine": untraced[0]["context"]["machine"],
        "seconds": sorted({r["context"]["seconds"] for r in results}),
        "workloads": dict(sorted(workloads.items())),
    }
    if extra is not None:
        record["extra"] = check_extra(extra)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--in", dest="inputs", default=".bench_out")
    parser.add_argument("--out", help="default: BENCH_<label>.json")
    parser.add_argument("--extra", help="JSON file of {name: {value, unit, command}}")
    args = parser.parse_args(argv)
    paths = sorted(pathlib.Path(args.inputs).glob("result-*.json"))
    try:
        extra = json.loads(pathlib.Path(args.extra).read_text()) if args.extra else None
        record = merge([json.loads(p.read_text()) for p in paths], args.label, extra)
    except MergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = pathlib.Path(args.out or f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out} from {len(paths)} results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
