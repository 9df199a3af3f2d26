"""Command-line entry points: run, sweep, report.

numpy (and everything that imports it) is loaded inside ``main`` so that
``ECLAB_DETERMINISTIC=1`` can pin the BLAS thread pools to a single thread
before any library reads its environment. ``sweep`` runs each of its runs as
an ``eclab run`` child process, whose thread share ``runner.child_env`` sets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import THREAD_VARS


def _pin_threads_if_deterministic():
    if os.environ.get("ECLAB_DETERMINISTIC") == "1":
        for var in THREAD_VARS:
            os.environ.setdefault(var, "1")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eclab",
        description="Signaling-game experiments with a stack-augmented receiver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one sender/receiver pair")
    p_run.add_argument("--config", help="JSON file with RunConfig keys")
    p_run.add_argument("--preset", help="start from a named preset instead of a file")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config field (repeatable)",
    )
    p_run.add_argument(
        "--print-config",
        action="store_true",
        help="print the resolved config as JSON and exit",
    )

    p_sweep = sub.add_parser("sweep", help="run a strategy x seed grid")
    p_sweep.add_argument("--preset", required=True)
    p_sweep.add_argument(
        "--strategies",
        default=",".join(("learned", "left", "random")),
        help="comma-separated strategy list",
    )
    p_sweep.add_argument("--seeds", type=int, default=24, help="use seeds 0..N-1")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", help="sweep root directory (default runs/PRESET)")
    p_sweep.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE"
    )

    p_report = sub.add_parser("report", help="plot finished runs as SVG + CSV")
    p_report.add_argument("--in", dest="inputs", nargs="+", required=True)
    p_report.add_argument("--out", required=True)
    return parser


def _cmd_run(runner, args):
    if args.config and args.preset:
        raise runner.RunnerError("pass either --config or --preset, not both")
    if args.config:
        with open(args.config) as fh:
            config = runner.config_from_dict(json.load(fh))
    elif args.preset:
        config = runner.resolve_preset(args.preset)
    else:
        config = runner.RunConfig()
    updates = runner.parse_overrides(args.overrides)
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out:
        updates["out_dir"] = args.out
    if updates:
        config = runner.config_from_dict({**runner.to_dict(config), **updates})
    if args.print_config:
        print(json.dumps(runner.to_dict(config), indent=2, sort_keys=True))
        return 0
    result = runner.run(config)
    s = result.summary
    if result.failed:
        print(f"run FAILED: {s['error']} -> {result.out_dir}", file=sys.stderr)
        return 1
    print(
        "run ok: comacc_train={0} comacc_test={1} beta={2:.4g} kept={3} -> {4}".format(
            s["final_comacc_train"],
            s["final_comacc_test"],
            s["final_beta"],
            s["kept"],
            result.out_dir,
        )
    )
    return 0


def _cmd_sweep(runner, args):
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    root = args.out or f"runs/{args.preset}"
    rows = runner.sweep(args.preset, strategies=strategies, seeds=args.seeds, jobs=args.jobs,
                        out_root=root, overrides=runner.parse_overrides(args.overrides))
    failed = sum(1 for r in rows if r["kind"] == "run" and r["failed"])
    done = sum(1 for r in rows if r["kind"] == "run")
    print(f"sweep done: {done} runs ({failed} failed) -> {root}/aggregate.csv")
    return 0 if failed == 0 else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    _pin_threads_if_deterministic()
    from . import runner

    try:
        if args.command == "run":
            return _cmd_run(runner, args)
        if args.command == "sweep":
            return _cmd_sweep(runner, args)
        if args.command == "report":
            files = runner.report(args.inputs, args.out)
            print(f"wrote {len(files)} files to {args.out}")
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")
