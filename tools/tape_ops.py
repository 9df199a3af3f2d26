"""Count the tape records of one training step, the rows they hold and the
memory they keep, by op.

    PYTHONPATH=src python3 tools/tape_ops.py smoke-attrval [--set K=V ...]

Starts the preset's ``runner.RunState`` (``--set`` overrides a RunConfig
field, as for ``eclab run``) and takes its first step, the first step of
``eclab run`` in float32. Prints, per op, how many records that step's
``game.play_batch`` put on the tape, the summed leading-axis size of their
first outputs (1 for a 0-d output) and the MB (2**20 bytes) of the buffers
they hold, most records first, then the totals, then the ``lstm_cell`` line
split by cell (``lstm_cell:<cell>``, the cell's parameter prefix in
``game.joint_parameters``). The rows show how many nodes or rows a record
runs on: the ``lstm_cell`` rows drop when an LSTM runs once per distinct
prefix, though the records do not.

The tape is read when ``play_batch`` calls ``backward``. A record holds the
owner (through ``.base``) of each array its outputs, inputs and backward
closure reach through functions, tuples, lists, tensors and dataclasses;
each buffer counts once, to the first record, and parameters to none.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import sys
import types

import numpy as np

from eclab import diffengine as de
from eclab import game, runner


def _held(objs, seen):
    """Bytes of the buffers reachable from ``objs`` whose ids ``seen`` lacks; fills ``seen``."""
    total, todo = 0, list(objs)
    while todo:
        x = todo.pop()
        x = x.data if isinstance(x, de.Tensor) else x
        while isinstance(x, np.ndarray) and isinstance(x.base, np.ndarray):
            x = x.base
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            total += x.nbytes
        elif isinstance(x, (tuple, list)):
            todo += x
        elif isinstance(x, types.FunctionType):
            for cell in x.__closure__ or ():
                with contextlib.suppress(ValueError):  # an unbound cell
                    todo.append(cell.cell_contents)
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            todo += (getattr(x, f.name) for f in dataclasses.fields(x))
    return total


def count_ops(config):
    """Three ``Counter``s by op name for the tape of the ``play_batch`` of a
    run's first step (float32): records, the summed leading-axis size of their
    first outputs, and the bytes of the buffers they hold; and the same three
    for each cell's ``lstm_cell`` records, as cell name -> [records, rows, bytes]."""
    state = runner.start(config, np.float32)
    params = game.joint_parameters(state.sender, state.receiver)
    cells = {id(t): n.removesuffix(".W") for n, t in params.items() if n.endswith("cell.W")}
    counts, rows, held = (collections.Counter() for _ in range(3))
    by_cell = collections.defaultdict(lambda: np.zeros(3, dtype=np.int64))
    backward = game.backward

    def counted(tape, *args, **kwargs):
        seen = set()
        _held(params.values(), seen)
        for outs, inputs, bw, op in tape._nodes:
            record = (1, (outs[0].shape or (1,))[0], _held((outs, inputs, bw), seen))
            for table, value in zip((counts, rows, held), record):
                table[op] += value
            if op == "lstm_cell":
                by_cell[cells[id(inputs[3])]] += record
        return backward(tape, *args, **kwargs)

    game.backward = counted
    try:
        state.step()
    finally:
        game.backward = backward
    return counts, rows, held, {cell: v.tolist() for cell, v in by_cell.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("preset")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="K=V")
    args = parser.parse_args(argv)
    try:
        config = runner.resolve_preset(args.preset, **runner.parse_overrides(args.overrides))
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
