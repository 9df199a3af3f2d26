"""The signaling game: objective, REINFORCE surrogate, and the KL controller.

One training step samples messages for a batch of meanings, runs the receiver,
and builds a single scalar surrogate whose gradients are simultaneously the
receiver's pathwise gradients and the sender's score-function (REINFORCE)
gradients:

    loss = -mean_b[ log R_b + beta * log P_b + (G_b - v) * log S_b + c * H_b ]

with reward ``G_b = log R_b - beta * (log S_b - log P_b)`` treated as a
constant (stop-gradient), ``v`` an EMA baseline over batch-mean rewards, ``H``
the summed per-step emission entropy, and ``c`` the entropy coefficient. With
beta = 0 this is plain REINFORCE on reconstruction reward; with the prior term
it is the usual variational objective with the KL estimated from samples.

beta follows a constrained-optimization schedule: it multiplies by
``exp(nu * (kappa - recon_ema))`` each step, clipped to [beta0, 1], so it only
rises once the reconstruction loss EMA beats the target ``kappa``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import diffengine as de
from .agents import Receiver, Sender, Strategy
from .diffengine import Tape, Tensor, backward


class GameError(ValueError):
    """Inconsistent game configuration."""


class NonFiniteLossError(RuntimeError):
    """The surrogate loss or a reward went NaN/Inf; details says where."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


@dataclass
class GameConfig:
    """Agent and objective settings (the run layer adds schedule/bookkeeping).
    ``Sender`` and ``Receiver`` read theirs from here, where they are checked."""

    strategy: str = "learned"
    beta_mode: str = "off"  # "off" | "rewo"
    entropy_coef: float = 0.5
    batch_size: int = 8192
    hidden: int = 512
    embedding: int = 32
    vocab: int = 4
    max_len: int = 8
    k_u: float = 2.0
    k_d: float = 2.0
    k_r: float = 2.0
    lr: float = 1e-4
    l2: float = 1e-4
    baseline_decay: float = 0.95
    beta0: float = 1e-3
    kappa: float = 0.1
    nu: float = 0.01
    rewo_ema_decay: float = 0.99
    random_resample: str = "per_step"

    def __post_init__(self):
        if self.beta_mode not in ("off", "rewo"):
            raise GameError(f"unknown beta_mode {self.beta_mode!r}")
        Strategy.parse(self.strategy)
        for name, least in (
            ("batch_size", 1), ("hidden", 1), ("embedding", 1), ("max_len", 1), ("vocab", 2)
        ):
            if getattr(self, name) < least:
                raise GameError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name, ok, rule in (
            ("lr", self.lr > 0, "> 0"),
            ("l2", self.l2 >= 0, ">= 0"),
            ("baseline_decay", 0 <= self.baseline_decay <= 1, "in [0, 1]"),
            ("rewo_ema_decay", 0 <= self.rewo_ema_decay <= 1, "in [0, 1]"),
            ("beta0", 0 < self.beta0 <= 1, "in (0, 1]"),
            ("k_u", self.k_u > 0, "> 0"),
            ("k_d", self.k_d > 0, "> 0"),
            ("k_r", self.k_r > 0, "> 0"),
            ("random_resample", self.random_resample in ("per_step", "per_message"),
             "per_step or per_message"),
        ):
            if not ok:
                raise GameError(f"{name} must be {rule}, got {getattr(self, name)}")


def build_agents(space, config, rng, dtype=np.float32):
    """Construct a (sender, receiver) pair from one init stream.

    The sender draws first, then the receiver; the receiver's prior head (only
    present in "rewo" mode) draws last, so configurations that differ only in
    beta_mode share identical initial values for every common parameter.
    """
    return Sender(space, config, rng, dtype), Receiver(space, config, rng, dtype)


def joint_parameters(sender, receiver):
    """Flat name -> Tensor map over both agents ("sender." / "receiver.")."""
    params = sender.named_parameters("sender.")
    params.update(receiver.named_parameters("receiver."))
    return params


def load_parameters(sender, receiver, table):
    sender.set_parameters(table, "sender.")
    receiver.set_parameters(table, "receiver.")


# ---------------------------------------------------------------------------
# running statistics


@dataclass(frozen=True)
class BaselineState:
    """EMA of batch-mean rewards; seeded by the first batch it sees."""

    value: float | None = None
    decay: float = 0.95


def baseline_update(state, rewards):
    m = float(np.mean(rewards))
    if state.value is None:
        return BaselineState(m, state.decay)
    return BaselineState(state.decay * state.value + (1.0 - state.decay) * m, state.decay)


@dataclass(frozen=True)
class RewoState:
    """Multiplicative controller for the KL weight beta."""

    beta: float = 1e-3
    loss_ema: float | None = None
    beta0: float = 1e-3
    kappa: float = 0.1
    nu: float = 0.01
    ema_decay: float = 0.99

    @classmethod
    def from_config(cls, config):
        return cls(
            beta=config.beta0,
            beta0=config.beta0,
            kappa=config.kappa,
            nu=config.nu,
            ema_decay=config.rewo_ema_decay,
        )


def rewo_update(state, recon_loss):
    """Fold one batch's reconstruction loss into the EMA and rescale beta."""
    if not np.isfinite(recon_loss):
        raise NonFiniteLossError("non-finite reconstruction loss in beta update")
    if state.loss_ema is None:
        ema = float(recon_loss)
    else:
        ema = state.ema_decay * state.loss_ema + (1.0 - state.ema_decay) * float(recon_loss)
    beta = state.beta * math.exp(state.nu * (state.kappa - ema))
    beta = min(1.0, max(state.beta0, beta))
    return replace(state, beta=beta, loss_ema=ema)


def run_filter(final_beta, threshold=0.95):
    """Keep only runs whose beta ended saturated (the KL term fully engaged)."""
    return final_beta >= threshold


def kl_estimate(log_s, log_p):
    """Monte-Carlo KL(S || P) from per-sample log-probs under both models."""
    log_s = np.asarray(log_s, dtype=np.float64)
    log_p = np.asarray(log_p, dtype=np.float64)
    if log_s.shape != log_p.shape:
        raise GameError(f"mismatched shapes {log_s.shape} vs {log_p.shape}")
    return float(np.mean(log_s - log_p))


# ---------------------------------------------------------------------------
# one training step


@dataclass
class StepStats:
    loss: float
    recon_loss: float  # -mean log R
    reward_mean: float
    baseline: float
    kl: float  # mean(log S - log P); 0.0 when the prior is off
    beta: float
    entropy: float  # mean per-symbol emission entropy
    mean_length: float
    mean_log_s: float
    mean_log_prior: float | None  # None when the prior is off


def play_batch(sender, receiver, meanings, config, rng, baseline, beta=0.0, branch_rng=None):
    """One full game on ``meanings``: sample, receive, build surrogate, grade.

    Returns ``(stats, grads, new_baseline)`` where grads is a flat name ->
    ndarray dict over both agents. ``rng`` drives message sampling;
    ``branch_rng`` drives random-branching draws (required only then). The
    reward uses the *post-update* baseline, which the first batch makes
    exactly its own mean (advantage zero).
    """
    strategy = Strategy.parse(config.strategy)
    use_prior = config.beta_mode == "rewo"
    if use_prior and not receiver.has_prior:
        raise GameError("beta_mode 'rewo' needs a receiver built with a prior head")
    params = joint_parameters(sender, receiver)
    with Tape() as tape:
        state = sender.encode(meanings)
        emitted = sender.emit(state, mode="sample", rng=rng)
        enc = receiver.encode(emitted.batch, strategy, rng=branch_rng)
        log_r = receiver.reconstruct_logprob(enc, meanings)
        log_p = None
        if use_prior:
            log_p = receiver.message_log_prior(emitted.batch, enc.reads)
            reward = log_r.data - beta * (emitted.log_probs.data - log_p.data)
        else:
            reward = np.array(log_r.data)
        if not np.all(np.isfinite(reward)):
            raise NonFiniteLossError(
                "non-finite reward",
                details=_diagnose(log_r, emitted.log_probs, log_p, beta),
            )
        baseline = baseline_update(baseline, reward)
        advantage = Tensor._wrap((reward - baseline.value).astype(log_r.dtype))
        objective = de.add(log_r, de.mul(emitted.log_probs, advantage))
        objective = de.add(objective, de.mul(emitted.entropies, config.entropy_coef))
        if use_prior:
            objective = de.add(objective, de.mul(log_p, float(beta)))
        loss = de.mul(de.reduce_mean(objective), -1.0)
        if not np.isfinite(loss.data):
            raise NonFiniteLossError(
                "non-finite loss",
                details=_diagnose(log_r, emitted.log_probs, log_p, beta),
            )
        grads = backward(tape, loss, wrt=params.values())
    grad_table = {name: grads[t] for name, t in params.items()}
    lengths = emitted.batch.lengths
    stats = StepStats(
        loss=float(loss.data),
        recon_loss=float(-log_r.data.mean()),
        reward_mean=float(reward.mean()),
        baseline=float(baseline.value),
        kl=kl_estimate(emitted.log_probs.data, log_p.data) if use_prior else 0.0,
        beta=float(beta),
        entropy=float((emitted.entropies.data / lengths).mean()),
        mean_length=float(lengths.mean()),
        mean_log_s=float(emitted.log_probs.data.mean()),
        mean_log_prior=float(log_p.data.mean()) if use_prior else None,
    )
    return stats, grad_table, baseline


def _diagnose(log_r, log_s, log_p, beta):
    def bad(t):
        return int(np.size(t.data) - np.isfinite(t.data).sum()) if t is not None else 0

    return {
        "bad_log_r": bad(log_r),
        "bad_log_s": bad(log_s),
        "bad_log_p": bad(log_p),
        "beta": float(beta),
    }
