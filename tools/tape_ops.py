"""Count the tape records of one training step, the rows they hold and the
memory they keep, by op.

    PYTHONPATH=src python3 tools/tape_ops.py smoke-attrval [--set K=V ...]

Starts the preset's ``runner.RunState`` (``--set`` overrides a RunConfig
field, as for ``eclab run``) and takes its first step, the first step of
``eclab run`` in float32. Prints, per op, how many records that step's
``game.play_batch`` put on the tape, the summed leading-axis size of their
first outputs (1 for a 0-d output) and the MB (2**20 bytes) the forward held
for them, most records first, then the totals, then the ``lstm_cell`` line
split by cell (``lstm_cell:<cell>``, the cell's parameter prefix in
``game.joint_parameters``: the sender's encoder and emission, the receiver
and its decoder). The rows show how many nodes or rows a record runs on:
the ``lstm_cell`` rows drop when an LSTM runs once per distinct prefix,
though the records do not.

The MB come from ``tracemalloc``, which sees numpy's buffers. It traces the
forward, from the start of the step (its batch draw, a few KB) to the call
of ``backward`` in ``play_batch``; the growth of traced memory between two
consecutive records (outputs, arrays kept for backward, and whatever the
code between them left alive) counts to the later record's op, so the total
is what the forward holds at its last record.
"""

from __future__ import annotations

import argparse
import collections
import sys
import tracemalloc
from dataclasses import replace

import numpy as np

from eclab import diffengine as de
from eclab import game, runner


def count_ops(config):
    """``Counter``s of op name -> records on the tape of the ``play_batch``
    of a run's first step (float32), op name -> summed leading-axis size of
    those records' first outputs, and op name -> bytes of traced growth
    counted to those records; and the same three for the ``lstm_cell``
    records of each cell, as a dict of cell name -> [records, rows, bytes]."""
    state = runner.start(config, np.float32)
    cells = {
        id(t): name[: -len(".W")] for name, t in state.params.items() if name.endswith("cell.W")
    }
    counts, rows, held = (collections.Counter() for _ in range(3))
    by_cell = collections.defaultdict(lambda: [0, 0, 0])
    finish_many, backward = de._finish_many, game.backward
    last = [0]  # traced bytes at the previous record

    def counted(arrs, op, inputs, bw):
        outs = finish_many(arrs, op, inputs, bw)
        if de._TAPES:
            now = tracemalloc.get_traced_memory()[0]
            record = (1, arrs[0].shape[0] if arrs[0].ndim else 1, now - last[0])
            last[0] = now
            for table, value in zip((counts, rows, held), record):
                table[op] += value
            if op == "lstm_cell":
                cell = by_cell[cells[id(inputs[3])]]
                for k, value in enumerate(record):
                    cell[k] += value
        return outs

    def untraced_backward(*args, **kwargs):
        tracemalloc.stop()  # the forward ends here
        return backward(*args, **kwargs)

    de._finish_many, game.backward = counted, untraced_backward
    tracemalloc.start()
    try:
        state.step()
    finally:
        tracemalloc.stop()
        de._finish_many, game.backward = finish_many, backward
    return counts, rows, held, dict(by_cell)


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
    counts, rows, held, by_cell = count_ops(config)
    lines = [(op, n, rows[op], held[op]) for op, n in counts.most_common()]
    lines.append(("total", sum(counts.values()), sum(rows.values()), sum(held.values())))
    lines += [(f"lstm_cell:{cell}", *v) for cell, v in by_cell.items()]
    width = max(len(op) for op, *_ in lines)
    for op, n, r, b in lines:
        print(f"{op:<{width}} {n:>6} {r:>9} {b / 2**20:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
