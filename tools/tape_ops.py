"""Count the tape records of one training step by op.

    PYTHONPATH=src python3 tools/tape_ops.py smoke-attrval [--set K=V ...]

Builds the preset's agents (``--set`` overrides a RunConfig field, as for
``eclab run``), draws the first training batch as ``eclab run`` does, runs
one ``game.play_batch`` in float32 and prints how many records each op put
on its tape, most first, then the total.
"""

from __future__ import annotations

import argparse
import collections
import sys
from dataclasses import replace

from eclab import diffengine as de
from eclab import runner
from eclab.game import BaselineState, build_agents, play_batch
from eclab.meanings import split


def count_ops(config):
    """``Counter`` of op name -> records on the tape of one ``play_batch``."""
    space = runner.build_space(config)
    train_idx, _ = split(space, seed=runner.stream_seed(config.seed, "split"))
    picks = runner.stream_generator(config.seed, "batch").integers(
        0, len(train_idx), size=config.batch_size
    )
    sender, receiver = build_agents(
        space, config, runner.stream_generator(config.seed, "init")
    )
    counts = collections.Counter()
    finish, finish_many = de._finish, de._finish_many

    def counted(real):
        def wrapper(arr, op, inputs, bw):
            if de._TAPES:
                counts[op] += 1
            return real(arr, op, inputs, bw)

        return wrapper

    de._finish, de._finish_many = counted(finish), counted(finish_many)
    try:
        play_batch(
            sender,
            receiver,
            [space.meanings[train_idx[i]] for i in picks],
            config,
            rng=runner.stream_generator(config.seed, "sender"),
            baseline=BaselineState(decay=config.baseline_decay),
            branch_rng=runner.stream_generator(config.seed, "branching"),
        )
    finally:
        de._finish, de._finish_many = finish, finish_many
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("preset")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="K=V")
    args = parser.parse_args(argv)
    config = runner.resolve_preset(args.preset)
    updates = {}
    for item in args.overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            parser.error(f"--set expects KEY=VALUE, got {item!r}")
        updates[key] = runner.coerce_field(key, raw)
    counts = count_ops(replace(config, **updates))
    for op, n in counts.most_common():
        print(f"{op:<12} {n}")
    print(f"{'total':<12} {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
