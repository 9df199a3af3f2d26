"""Count the tape records of one training step, and the rows they hold, by op.

    PYTHONPATH=src python3 tools/tape_ops.py smoke-attrval [--set K=V ...]

Builds the preset's agents (``--set`` overrides a RunConfig field, as for
``eclab run``), draws the first training batch as ``eclab run`` does, runs
one ``game.play_batch`` in float32 and prints, per op, how many records it
put on the tape and the summed leading-axis size of their first outputs (1
for a 0-d output), most records first, then the totals. The rows show how
many nodes or rows a record runs on: the ``lstm_cell`` rows of a Dyck preset
drop when its LSTMs run once per distinct prefix, though the records do not.
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
    """``Counter``s of op name -> records on the tape of one ``play_batch``,
    and op name -> summed leading-axis size of those records' first outputs."""
    space = runner.build_space(config)
    train_idx, _ = split(space, seed=runner.stream_seed(config.seed, "split"))
    streams = runner.seed_streams(config.seed)
    picks = streams["batch"].integers(0, len(train_idx), size=config.batch_size)
    sender, receiver = build_agents(space, config, streams["init"])
    counts, rows = collections.Counter(), collections.Counter()
    finish_many = de._finish_many

    def counted(arrs, op, inputs, bw):
        if de._TAPES:
            counts[op] += 1
            rows[op] += arrs[0].shape[0] if arrs[0].ndim else 1
        return finish_many(arrs, op, inputs, bw)

    de._finish_many = counted
    try:
        play_batch(
            sender,
            receiver,
            [space.meanings[train_idx[i]] for i in picks],
            config,
            rng=streams["sender"],
            baseline=BaselineState(decay=config.baseline_decay),
            branch_rng=streams["branching"],
        )
    finally:
        de._finish_many = finish_many
    return counts, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("preset")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="K=V")
    args = parser.parse_args(argv)
    try:
        updates = runner.parse_overrides(args.overrides)
        config = replace(runner.resolve_preset(args.preset), **updates)
    except ValueError as exc:
        parser.error(str(exc))
    counts, rows = count_ops(config)
    for op, n in counts.most_common():
        print(f"{op:<12} {n:>6} {rows[op]:>9}")
    print(f"{'total':<12} {sum(counts.values()):>6} {sum(rows.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
