"""Print one sha256 per training case over three steps' gradients and stats.

    PYTHONPATH=src python3 tools/grad_hash.py

The cases are smoke-attrval and smoke-dyck × learned/left/random ×
beta_mode off/rewo × float32/float64, at hidden 32 and batch 64. Each case
builds the preset's agents and streams as ``eclab run`` does, then runs
three ``game.play_batch`` steps with their Adam updates (and, under rewo,
the beta controller). The digest covers every gradient, by parameter name,
and every ``StepStats`` field of the three steps. Each line reads
``preset strategy beta_mode dtype sha256``.

Two trees compute the same numbers exactly when their outputs are the same,
so a refactor that should not change a bit is checked by running this
script on both trees and comparing the two outputs with ``diff``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import sys

import numpy as np

from eclab import runner
from eclab.diffengine import AdamState, adam_step
from eclab.game import (
    BaselineState,
    RewoState,
    build_agents,
    joint_parameters,
    load_parameters,
    play_batch,
    rewo_update,
)
from eclab.meanings import split

PRESETS = ("smoke-attrval", "smoke-dyck")
STRATEGIES = ("learned", "left", "random")
BETA_MODES = ("off", "rewo")
DTYPES = (np.float32, np.float64)
STEPS = 3


def case_digest(preset, strategy, beta_mode, dtype):
    """sha256 hex digest of ``STEPS`` steps of one case."""
    config = runner.resolve_preset(
        preset, strategy=strategy, beta_mode=beta_mode, hidden=32, batch_size=64
    )
    space = runner.build_space(config)
    train_idx, _ = split(space, seed=runner.stream_seed(config.seed, "split"))
    streams = runner.seed_streams(config.seed)
    sender, receiver = build_agents(space, config, streams["init"], dtype)
    params = joint_parameters(sender, receiver)
    opt = AdamState(lr=config.lr, l2=config.l2)
    baseline = BaselineState(decay=config.baseline_decay)
    rewo = RewoState.from_config(config) if beta_mode == "rewo" else None
    beta = rewo.beta if rewo else 0.0
    digest = hashlib.sha256()
    for _ in range(STEPS):
        picks = streams["batch"].integers(0, len(train_idx), size=config.batch_size)
        meanings = [space.meanings[train_idx[i]] for i in picks]
        stats, grads, baseline = play_batch(
            sender, receiver, meanings, config, rng=streams["sender"],
            baseline=baseline, beta=beta, branch_rng=streams["branching"],
        )
        for name in sorted(grads):
            digest.update(name.encode())
            digest.update(grads[name].tobytes())
        digest.update(repr(dataclasses.astuple(stats)).encode())
        params = adam_step(opt, params, grads)
        load_parameters(sender, receiver, params)
        if rewo:
            rewo = rewo_update(rewo, stats.recon_loss)
            beta = rewo.beta
    return digest.hexdigest()


def main():
    for preset, strategy, beta_mode, dtype in itertools.product(
        PRESETS, STRATEGIES, BETA_MODES, DTYPES
    ):
        digest = case_digest(preset, strategy, beta_mode, dtype)
        print(preset, strategy, beta_mode, np.dtype(dtype).name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
