"""Print one sha256 per training case over three steps' gradients and stats
and the evaluation after them.

    PYTHONPATH=src python3 tools/grad_hash.py [--save FILE.npz] [--against FILE.npz]

The cases are smoke-attrval and smoke-dyck × learned/left/random ×
beta_mode off/rewo × float32/float64, at hidden 32 and batch 64. Each case
starts the preset's ``runner.RunState`` as ``eclab run`` does and takes its
first three steps (``game.play_batch``, the Adam update and, under rewo, the
beta controller), then evaluates as ``eclab run`` does: ``metrics.comacc``
on the train and test splits and, under rewo, ``metrics.mean_log_prior`` on
both, drawing from the run's ``eval`` stream. The digest covers every
gradient, by parameter name, every ``StepStats`` field of the three steps and
the evaluation's values. Each line reads ``preset strategy beta_mode dtype sha256``.

Two trees compute the same numbers exactly when their outputs are the same,
so a refactor that should not change a bit is checked by running this
script on both trees and comparing the two outputs with ``diff``.

A change that may move round-off is checked against the numbers instead.
``--save FILE.npz`` writes every gradient, stat and evaluation value the
digests cover, and ``--against FILE.npz`` (written by ``--save`` on another
tree) adds to each line the case's largest relative difference: over its
arrays, the largest ``max|a - b| / max|b|``, where a NaN on both sides counts
as equal and a NaN on one side as infinitely far. Run one copy of this script
on both trees, so both save the same arrays.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import sys

import numpy as np

from eclab import metrics, runner

PRESETS = ("smoke-attrval", "smoke-dyck")
STRATEGIES = ("learned", "left", "random")
BETA_MODES = ("off", "rewo")
DTYPES = (np.float32, np.float64)
STEPS = 3


def evaluate(state):
    """The train and test ComAcc and, under rewo, the train and test mean log
    prior, in the order ``eclab run`` computes them from one ``eval`` stream."""
    eval_rng = runner.stream_generator(state.config.seed, "eval")
    agents, strategy = (state.sender, state.receiver), state.config.strategy
    splits = (state.train, state.test)
    rewo = state.config.beta_mode == "rewo"
    memos = [{} if rewo else None for _ in splits]
    values = [
        metrics.comacc(*agents, m, strategy, eval_rng, draws=state.config.eval_draws, memo=memo)
        for m, memo in zip(splits, memos)
    ]
    if rewo:
        values += [
            metrics.mean_log_prior(*agents, m, strategy, eval_rng, memo=memo)
            for m, memo in zip(splits, memos)
        ]
    return values


def run_case(preset, strategy, beta_mode, dtype):
    """sha256 hex digest of ``STEPS`` steps and the evaluation of one case,
    and the arrays it covers: ``<step>/<parameter>`` gradients, ``<step>/stats``,
    the ``StepStats`` fields as float64 (None as NaN), and ``eval``, the
    values of ``evaluate``."""
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
    values = evaluate(state)
    digest.update(repr(values).encode())
    arrays["eval"] = np.array(values)
    return digest.hexdigest(), arrays


def max_rel_diff(arrays, saved):
    worst = 0.0
    for key, a in arrays.items():
        a, b = a.astype(np.float64), saved[key].astype(np.float64)
        if (np.isnan(a) != np.isnan(b)).any():
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
            diff = max_rel_diff(arrays, {k: saved[prefix + k] for k in arrays})
            print(*line, digest, diff)
        else:
            print(*line, digest)
    if args.save:
        np.savez(args.save, **everything)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
