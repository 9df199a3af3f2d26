import math

import numpy as np
import pytest

from eclab.agents import MessageBatch, MissingPriorError, Receiver, Sender
from eclab.game import GameConfig
from eclab.meanings import enumerate_attr_val
from eclab.metrics import (
    CSV_FIELDS,
    MetricsRecord,
    append_metrics,
    comacc,
    mean_log_prior,
    read_metrics,
)


class StubEmit:
    def __init__(self, batch):
        self.batch = batch
        self.messages = None


class StubSender:
    """Maps meaning index i to message (i % 2 + 1, EOS)."""

    def __init__(self, space):
        self.space = space

    def encode(self, meanings):
        return meanings

    def emit(self, meanings, mode="greedy", rng=None):
        assert mode == "greedy"
        seqs = [(self.space.index_of(m) % 2 + 1, 0) for m in meanings]
        return StubEmit(MessageBatch.from_sequences(seqs, max_len=2, vocab=3))


class StubReceiver:
    """Decodes message (s, EOS) back to the (s-1)-th meaning."""

    def __init__(self, space):
        self.space = space

    def encode(self, batch, strategy, rng=None, want_trace=False):
        return batch

    def greedy_decode(self, batch):
        return [self.space.meanings[s - 1] for s in batch.symbols[:, 0]]


def test_comacc_against_hand_built_channel():
    space = enumerate_attr_val(2, 2)  # 4 meanings
    # meanings 0,1,2,3 -> messages 1,2,1,2 -> decodes 0,1,0,1: half correct
    acc = comacc(StubSender(space), StubReceiver(space), space.meanings, "learned")
    assert acc == 0.5
    acc = comacc(
        StubSender(space), StubReceiver(space), space.meanings[:2], "learned"
    )
    assert acc == 1.0


def real_agents(strategy_needs_prior=False):
    space = enumerate_attr_val(2, 3)
    rng = np.random.default_rng(21)
    config = GameConfig(
        hidden=8,
        embedding=4,
        vocab=3,
        max_len=3,
        beta_mode="rewo" if strategy_needs_prior else "off",
    )
    sender = Sender(space, config, rng, np.float32)
    receiver = Receiver(space, config, rng, np.float32)
    return space, sender, receiver


def test_comacc_bounds_and_determinism():
    space, sender, receiver = real_agents()
    a1 = comacc(sender, receiver, space.meanings, "learned")
    a2 = comacc(sender, receiver, space.meanings, "learned")
    assert a1 == a2
    assert 0.0 <= a1 <= 1.0


def test_comacc_extra_draws_match_for_deterministic_strategies():
    space, sender, receiver = real_agents()
    one = comacc(sender, receiver, space.meanings, "left", draws=1)
    many = comacc(sender, receiver, space.meanings, "left", draws=5)
    assert one == many


def test_comacc_random_strategy_uses_rng():
    space, sender, receiver = real_agents()
    a = comacc(
        sender, receiver, space.meanings, "random",
        eval_rng=np.random.default_rng(3), draws=4,
    )
    b = comacc(
        sender, receiver, space.meanings, "random",
        eval_rng=np.random.default_rng(3), draws=4,
    )
    assert a == b
    with pytest.raises(Exception, match="rng"):
        comacc(sender, receiver, space.meanings, "random")
    with pytest.raises(ValueError, match="draws"):
        comacc(sender, receiver, space.meanings, "learned", draws=0)


def test_mean_log_prior_needs_prior_head():
    space, sender, receiver = real_agents(strategy_needs_prior=True)
    val = mean_log_prior(sender, receiver, space.meanings, "learned")
    assert val < 0.0 and math.isfinite(val)
    _, sender2, receiver2 = real_agents(strategy_needs_prior=False)
    with pytest.raises(MissingPriorError):
        mean_log_prior(sender2, receiver2, space.meanings, "learned")


def sample_record(i, **kw):
    base = dict(
        iteration=i,
        comacc_train=0.5,
        comacc_test=0.25,
        mean_log_prior_train=-2.5,
        mean_log_prior_test=-3.5,
        recon_loss=1.25,
        kl=0.125,
        beta=0.001,
        entropy=0.75,
        wall_seconds=1.5,
    )
    base.update(kw)
    return MetricsRecord(**base)


def test_metrics_csv_roundtrip(tmp_path):
    path = tmp_path / "metrics.csv"
    append_metrics(path, sample_record(100))
    append_metrics(path, sample_record(200, comacc_train=1.0))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 3  # header written exactly once
    back = read_metrics(path)
    assert back[0] == sample_record(100)
    assert back[1].comacc_train == 1.0 and back[1].iteration == 200


def test_metrics_csv_nan_roundtrip(tmp_path):
    path = tmp_path / "metrics.csv"
    append_metrics(
        path,
        sample_record(1, mean_log_prior_train=float("nan"), mean_log_prior_test=float("nan")),
    )
    back = read_metrics(path)
    assert math.isnan(back[0].mean_log_prior_train)
    assert back[0].recon_loss == 1.25


def split_halves(space):
    return space.meanings[::2], space.meanings[1::2]


@pytest.mark.parametrize("strategy", ["learned", "left", "random"])
def test_memoised_evaluation_matches_fresh_calls(strategy):
    space, sender, receiver = real_agents(strategy_needs_prior=True)
    train, test = split_halves(space)

    def evaluate(memos):
        rng = np.random.default_rng(17)
        m_train, m_test = memos
        values = (
            comacc(sender, receiver, train, strategy, rng, draws=2, memo=m_train),
            comacc(sender, receiver, test, strategy, rng, draws=2, memo=m_test),
            mean_log_prior(sender, receiver, train, strategy, rng, memo=m_train),
            mean_log_prior(sender, receiver, test, strategy, rng, memo=m_test),
        )
        return values, rng.bit_generator.state

    fresh = evaluate((None, None))
    memo = evaluate(({}, {}))
    assert memo[0] == fresh[0]
    assert memo[1] == fresh[1]  # the random draws are taken in the same order


def test_memo_encodes_each_split_once_for_learned():
    space, sender, receiver = real_agents(strategy_needs_prior=True)
    train, test = split_halves(space)
    calls = []
    encode = receiver.encode

    def counting_encode(batch, *args, **kwargs):
        calls.append(len(batch))
        return encode(batch, *args, **kwargs)

    receiver.encode = counting_encode
    m_train, m_test = {}, {}
    comacc(sender, receiver, train, "learned", memo=m_train)
    comacc(sender, receiver, test, "learned", memo=m_test)
    mean_log_prior(sender, receiver, train, "learned", memo=m_train)
    mean_log_prior(sender, receiver, test, "learned", memo=m_test)
    assert calls == [len(train), len(test)]
    assert set(m_train) == {"batch", "reads"}
