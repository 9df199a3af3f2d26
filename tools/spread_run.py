"""Run ``eclab run`` on batches whose messages share as few prefixes as
sampling gets, for memory and step-time measurements.

    PYTHONPATH=src python3 tools/peak_rss.py python3 tools/spread_run.py \\
        --preset exp1-dyck-k4 --set iterations=4 --set eval_every=4 --out runs/spread

Takes the arguments of ``eclab run``. Before training, the sender's output
layer is set to zero weights and a bias of -30 on EOS, so every message is
``max_len`` long and each of its symbols is drawn uniformly from the content
symbols. Each LSTM row then stays live for every step, and the receiver gets
about as many distinct prefixes per step as a sampled batch can hold
(min((V-1)^(t+1), B) less collisions, against the min(V^(t+1), B) bound).
The sender's training moves these values only slightly over a few steps;
the runs are not meant to learn anything.
"""

from __future__ import annotations

import sys

import numpy as np

from eclab import diffengine as de
from eclab import runner
from eclab.agents import EOS
from eclab.cli import main as eclab_main


def spread_sender(sender):
    """Make ``sender`` emit full-length messages of uniform content symbols."""
    dtype = sender.out.W.dtype
    bias = np.zeros(sender.vocab, dtype=dtype)
    bias[EOS] = -30.0
    sender.out.W = de.Tensor._wrap(np.zeros_like(sender.out.W.data))
    sender.out.b = de.Tensor._wrap(bias)
    return sender


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    build = runner.build_agents

    def build_spread(space, config, rng, dtype=np.float32):
        sender, receiver = build(space, config, rng, dtype=dtype)
        return spread_sender(sender), receiver

    runner.build_agents = build_spread
    try:
        return eclab_main(["run", *args])
    finally:
        runner.build_agents = build


if __name__ == "__main__":
    sys.exit(main())
