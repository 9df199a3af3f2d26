"""Print one sha256 per training case over three steps' gradients and stats
and the evaluation and greedy round trips after them.

    PYTHONPATH=src python3 tools/grad_hash.py [--save FILE.npz] [--against FILE.npz]

The cases are smoke-attrval and smoke-dyck × learned/left/random ×
beta_mode off/rewo × float32/float64, at hidden 32 and batch 64. Each case
starts the preset's ``runner.RunState`` as ``eclab run`` does, takes its
first three steps (``game.play_batch``, the Adam update and, under rewo, the
beta controller) and evaluates it with ``RunState.evaluate``, which makes
the evaluation values of ``eclab run``'s ``metrics.csv`` row at that
iteration: ComAcc on the train and test splits and, under rewo, the mean
log prior on both, drawn from the stream ``eval/<iteration>``. ComAcc is 0
in most cases this early, so the greedy path is covered by its outputs too:
each split's greedy messages (``Sender.emit(..., mode="greedy")``, symbols
and lengths) and the meanings the receiver greedily decodes from them
(``Receiver.encode``, ``greedy_decode``), with random directives drawn from
this tool's own stream ``grad_hash``. The digest covers every gradient, by
parameter name, every ``StepStats`` field of the three steps, the
evaluation's values and the greedy arrays. Each line reads ``preset strategy
beta_mode dtype sha256``.

Two trees compute the same numbers exactly when their outputs are the same,
so a refactor that should not change a bit is checked by running this
script on both trees and comparing the two outputs with ``diff``.

A change that may move round-off is checked against the numbers instead.
``--save FILE.npz`` writes every gradient, stat, evaluation value and greedy
array the digests cover, and ``--against FILE.npz`` (written by ``--save``
on another tree) adds to each line the case's largest relative difference:
over the arrays both sides have, the largest ``max|a - b| / max|b|``, where
a NaN on both sides counts as equal, and a NaN on one side or a change of
shape as infinitely far. Then it lists the case's arrays that only this
run has (``+name``) and those that only the file has (``-name``), so a file
saved by an older copy of this script can be compared. Run one copy of
this script on both trees to compare every array.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import sys

import numpy as np

from eclab import runner

PRESETS = ("smoke-attrval", "smoke-dyck")
STRATEGIES = ("learned", "left", "random")
BETA_MODES = ("off", "rewo")
DTYPES = (np.float32, np.float64)
STEPS = 3


def greedy_round_trip(state, meanings, rng):
    """The greedy messages for ``meanings``, as ``symbols`` [B, T] and
    ``lengths`` [B], and the meanings the receiver greedily decodes from
    them, as ``decoded`` [B, width] padded with -1; random directives are
    drawn from ``rng``."""
    batch = state.sender.emit(state.sender.encode(meanings), mode="greedy").batch
    words = state.receiver.greedy_decode(state.receiver.encode(batch, state.config.strategy, rng))
    space = state.receiver.space
    decoded = np.full((len(words), space.n_att if space.kind == "attr_val" else space.l_max), -1)
    for row, word in zip(decoded, words):
        row[: len(word)] = word
    return {"symbols": batch.symbols, "lengths": batch.lengths, "decoded": decoded}


def run_case(preset, strategy, beta_mode, dtype):
    """sha256 hex digest of ``STEPS`` steps, the evaluation and the greedy
    round trips of one case, and the arrays it covers: ``<step>/<parameter>``
    gradients, ``<step>/stats``, the ``StepStats`` fields as float64 (None as
    NaN), ``eval``, the ComAccs and, under rewo, the log priors of
    ``RunState.evaluate``, and ``greedy/<split>/<name>``, the arrays of
    ``greedy_round_trip``."""
    config = runner.resolve_preset(
        preset, strategy=strategy, beta_mode=beta_mode, hidden=32, batch_size=64
    )
    state = runner.start(config, dtype)
    digest, arrays = hashlib.sha256(), {}
    for step in range(STEPS):
        stats, grads = state.step()
        for name in sorted(grads):
            digest.update(name.encode())
            digest.update(grads[name].tobytes())
            arrays[f"{step}/{name}"] = grads[name]
        fields = dataclasses.astuple(stats)
        digest.update(repr(fields).encode())
        arrays[f"{step}/stats"] = np.array([np.nan if v is None else v for v in fields])
    values = list(state.evaluate().values())
    values = values if state.rewo is not None else values[:2]  # no prior, no log priors
    digest.update(repr(values).encode())
    arrays["eval"] = np.array(values)
    rng = runner.stream_generator(config.seed, "grad_hash")
    for split, meanings in (("train", state.train), ("test", state.test)):
        for name, a in greedy_round_trip(state, meanings, rng).items():
            digest.update(f"{split}/{name}{a.shape}".encode())
            digest.update(a.tobytes())
            arrays[f"greedy/{split}/{name}"] = a
    return digest.hexdigest(), arrays


def max_rel_diff(arrays, saved):
    worst = 0.0
    for key, a in arrays.items():
        a, b = a.astype(np.float64), saved[key].astype(np.float64)
        if a.shape != b.shape or (np.isnan(a) != np.isnan(b)).any():
            return np.inf
        a, b = np.where(np.isnan(a), 0.0, a), np.where(np.isnan(b), 0.0, b)
        diff, scale = np.abs(a - b).max(initial=0.0), np.abs(b).max(initial=0.0)
        if diff:
            worst = max(worst, diff / scale if scale else np.inf)
    return worst


def main(argv=()):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="FILE.npz")
    parser.add_argument("--against", metavar="FILE.npz")
    args = parser.parse_args(argv)
    saved = dict(np.load(args.against)) if args.against else None
    everything = {}
    for case in itertools.product(PRESETS, STRATEGIES, BETA_MODES, DTYPES):
        digest, arrays = run_case(*case)
        line = [*case[:3], np.dtype(case[3]).name]
        prefix = "/".join(line) + "/"
        everything.update({prefix + key: a for key, a in arrays.items()})
        if saved is not None:
            theirs = {k.removeprefix(prefix) for k in saved if k.startswith(prefix)}
            both = {k: saved[prefix + k] for k in theirs & arrays.keys()}
            diff = max_rel_diff({k: arrays[k] for k in both}, both)
            only = [f"+{k}" for k in sorted(arrays.keys() - theirs)]
            only += [f"-{k}" for k in sorted(theirs - arrays.keys())]
            print(*line, digest, diff, *only)
        else:
            print(*line, digest)
    if args.save:
        np.savez(args.save, **everything)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
