"""Evaluation metrics and the per-run CSV schema.

Communication accuracy (ComAcc) is the fraction of meanings the channel
round-trips exactly: greedy sender message, receiver encode, greedy decode,
compared for equality. For the random-branching receiver it averages over
``draws`` independent encodes; the other strategies are deterministic, so one
pass suffices.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields

import numpy as np

from .agents import Strategy


@dataclass
class MetricsRecord:
    iteration: int
    comacc_train: float
    comacc_test: float
    mean_log_prior_train: float  # nan when the run has no prior
    mean_log_prior_test: float
    recon_loss: float
    kl: float
    beta: float
    entropy: float
    wall_seconds: float

    def as_row(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


CSV_FIELDS = [f.name for f in fields(MetricsRecord)]


def _greedy_messages(sender, meanings):
    state = sender.encode(meanings)
    return sender.emit(state, mode="greedy").batch


def comacc(sender, receiver, meanings, strategy, eval_rng=None, draws=1, memo=None):
    """Exact-reconstruction rate over ``meanings`` (greedy on both sides).

    Deterministic given (parameters, meanings, strategy, rng state, draws);
    for non-random strategies extra draws are skipped since every draw would
    decode identically. A dict passed as ``memo`` receives the greedy message
    batch and, for the deterministic strategies, the receiver's reads as
    ``encode`` returns them (each step's reads on its prefix nodes, with each
    row's node), so ``mean_log_prior`` on the same split can skip that work.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    strategy = Strategy.parse(strategy)
    if strategy is not Strategy.RANDOM_BRANCHING:
        draws = 1
    meanings = [tuple(m) for m in meanings]
    batch = _greedy_messages(sender, meanings)
    correct = 0
    for _ in range(draws):
        enc = receiver.encode(batch, strategy, rng=eval_rng)
        decoded = receiver.greedy_decode(enc)
        correct += sum(d == m for d, m in zip(decoded, meanings))
    if memo is not None:
        memo["batch"] = batch
        if strategy is not Strategy.RANDOM_BRANCHING:
            memo["reads"] = enc.reads
    return correct / (draws * len(meanings))


def mean_log_prior(sender, receiver, meanings, strategy, eval_rng=None, memo=None):
    """Mean per-message log prior of the greedy messages for ``meanings``.

    ``memo`` is the dict ``comacc`` filled for the same meanings and
    parameters; what it holds is reused instead of recomputed. The random
    strategy still encodes again, drawing its directives from ``eval_rng``.
    """
    strategy = Strategy.parse(strategy)
    memo = memo or {}
    batch = memo.get("batch")
    if batch is None:
        batch = _greedy_messages(sender, [tuple(m) for m in meanings])
    reads = memo.get("reads")
    if reads is None:
        reads = receiver.encode(batch, strategy, rng=eval_rng).reads
    lp = receiver.message_log_prior(batch, reads)
    return float(lp.data.mean())


# ---------------------------------------------------------------------------
# metrics.csv


def append_metrics(path, record):
    """Append one row, writing the header first on an empty/new file; the row
    is flushed immediately so a crashed run keeps everything logged so far."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        if fresh:
            writer.writeheader()
        writer.writerow(record.as_row())
        fh.flush()
        os.fsync(fh.fileno())


def read_metrics(path):
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                MetricsRecord(
                    iteration=int(row["iteration"]),
                    **{
                        k: float(row[k])
                        for k in CSV_FIELDS
                        if k != "iteration"
                    },
                )
            )
    return out
