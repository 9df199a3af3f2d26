import itertools

import numpy as np
import pytest

from eclab import agents as agents_module
from eclab import diffengine as de
from eclab import game, runner
from eclab.agents import (
    EOS,
    AgentError,
    EncodeResult,
    LstmCell,
    Message,
    MessageBatch,
    MissingPriorError,
    NodeState,
    Receiver,
    Sender,
    StepTrace,
    Strategy,
    as_message_batch,
)
from eclab.diffengine import Tape, Tensor, backward, grad_check, kink_margin, tensor
from eclab.game import GameConfig
from eclab.meanings import encode_meaning, enumerate_attr_val, enumerate_dyck
from eclab.neural_stack import StackDirectives, StackState, stack_step


def attr_space():
    return enumerate_attr_val(2, 3)


def dyck_space():
    return enumerate_dyck(2, 4)


def small_sender(space, seed=0, vocab=3, max_len=3, dtype=np.float64):
    config = GameConfig(hidden=10, embedding=4, vocab=vocab, max_len=max_len)
    return Sender(space, config, np.random.default_rng(seed), dtype)


def small_receiver(space, seed=1, vocab=3, max_len=3, with_prior=False, dtype=np.float64, **kw):
    config = GameConfig(
        hidden=8,
        embedding=4,
        vocab=vocab,
        max_len=max_len,
        beta_mode="rewo" if with_prior else "off",
        **kw,
    )
    return Receiver(space, config, np.random.default_rng(seed), dtype)


def state_rows(state):
    """A ``NodeState``'s h and c gathered to its rows, [B, hidden] each."""
    return de.gather_rows((state.h, state.c), state.node)


def row_reads(enc):
    """An encode's reads gathered to rows, [B, hidden] each."""
    return [de.gather_rows((read,), node)[0] for read, node in enc.reads]


def all_messages(vocab, max_len):
    """Every complete message: ends in EOS, or runs unterminated to max_len."""
    out = []
    for length in range(1, max_len + 1):
        for body in itertools.product(range(1, vocab), repeat=length - 1):
            out.append(body + (EOS,))
    for body in itertools.product(range(1, vocab), repeat=max_len):
        out.append(body)
    return out


def test_all_messages_helper_count():
    # vocab 3, max_len 2: (0,), (1,0), (2,0), (1,1), (1,2), (2,1), (2,2)
    msgs = all_messages(3, 2)
    assert len(msgs) == 7 and (0,) in msgs and (1, 2) in msgs


# ---------------------------------------------------------------------------
# sender


def test_emit_terminates_and_is_well_formed():
    sp = attr_space()
    s = small_sender(sp)
    rng = np.random.default_rng(5)
    state = s.encode(sp.meanings)
    res = s.emit(state, mode="sample", rng=rng)
    assert len(res.messages) == len(sp.meanings)
    for m in res.messages:
        assert 1 <= len(m) <= s.max_len
        assert all(0 <= t < s.vocab for t in m.symbols)
        if len(m) < s.max_len:
            assert m.symbols[-1] == EOS
        assert EOS not in m.symbols[:-1]
        assert m.log_prob == pytest.approx(sum(m.step_log_probs), rel=1e-9)
        assert m.entropy == pytest.approx(sum(m.step_entropies), rel=1e-9)
        assert m.entropy >= 0.0


def test_emit_deterministic_given_rng():
    sp = attr_space()
    s = small_sender(sp)
    state = s.encode(sp.meanings[:5])
    a = s.emit(state, mode="sample", rng=np.random.default_rng(9))
    b = s.emit(state, mode="sample", rng=np.random.default_rng(9))
    assert [m.symbols for m in a.messages] == [m.symbols for m in b.messages]
    g1 = s.emit(state, mode="greedy")
    g2 = s.emit(state, mode="greedy")
    assert [m.symbols for m in g1.messages] == [m.symbols for m in g2.messages]


def test_emit_builds_messages_only_on_access():
    sp = dyck_space()
    s = small_sender(sp, max_len=4)
    res = s.emit(s.encode(sp.meanings[:6]), mode="sample", rng=np.random.default_rng(2))
    assert "messages" not in vars(res)
    msgs = res.messages
    assert res.messages is msgs
    for b, m in enumerate(msgs):
        n = int(res.batch.lengths[b])
        assert m.symbols == tuple(int(t) for t in res.batch.symbols[b, :n])
        assert m.log_prob == float(res.log_probs.data[b])
        assert m.entropy == float(res.entropies.data[b])
        assert m.step_log_probs == tuple(float(v) for v in res.step_log_probs[b, :n])
        assert m.step_entropies == tuple(float(v) for v in res.step_entropies[b, :n])


def test_lstm_cell_step_is_one_tape_node():
    cell = LstmCell(np.random.default_rng(0), 3, 4, np.float64)
    x = tensor(np.ones((2, 3)), dtype=np.float64)
    h = c = tensor(np.zeros((2, 4)), dtype=np.float64)
    with Tape() as tape:
        h2, c2 = cell.step(x, h, c)
        cell.step(x, h2, c2, np.array([True, False]))
    assert len(tape) == 2


def test_score_matches_emit_logprobs():
    sp = attr_space()
    s = small_sender(sp)
    state = s.encode(sp.meanings)
    res = s.emit(state, mode="sample", rng=np.random.default_rng(3))
    rescored = s.score(state, res.messages)
    np.testing.assert_allclose(rescored.data, res.log_probs.data, atol=1e-6)


def test_sender_is_a_distribution_over_messages():
    sp = attr_space()
    s = small_sender(sp, vocab=3, max_len=2)
    msgs = all_messages(3, 2)
    state = s.encode([sp.meanings[4]] * len(msgs))
    logp = s.score(state, msgs)
    assert np.exp(logp.data).sum() == pytest.approx(1.0, abs=1e-10)


def test_sender_batching_matches_single():
    sp = dyck_space()
    s = small_sender(sp)
    pair = [sp.meanings[0], sp.meanings[7]]  # empty word plus a longer one
    state = s.encode(pair)
    joint = s.emit(state, mode="greedy")
    for i, m in enumerate(pair):
        solo = s.emit(s.encode([m]), mode="greedy")
        assert solo.messages[0].symbols == joint.messages[i].symbols
        np.testing.assert_allclose(
            solo.log_probs.data[0], joint.log_probs.data[i], atol=1e-12
        )


def test_sender_input_validation():
    sp = attr_space()
    s = small_sender(sp)
    state = s.encode(sp.meanings[:2])
    with pytest.raises(AgentError, match="rng"):
        s.emit(state, mode="sample")
    with pytest.raises(AgentError, match="mode"):
        s.emit(state, mode="beam")
    with pytest.raises(AgentError, match="3 messages against 2"):
        s.score(state, [(0,), (0,), (0,)])


def test_message_batch_validation():
    with pytest.raises(AgentError, match="EOS before"):
        MessageBatch.from_sequences([(1, 0, 2)], max_len=3, vocab=3)
    with pytest.raises(AgentError, match="unterminated"):
        MessageBatch.from_sequences([(1, 2)], max_len=3, vocab=3)
    with pytest.raises(AgentError, match="alphabet"):
        MessageBatch.from_sequences([(7, 0)], max_len=3, vocab=3)
    with pytest.raises(AgentError, match="length"):
        MessageBatch.from_sequences([(1, 1, 1, 0)], max_len=3, vocab=3)
    b = MessageBatch.from_sequences([(1, 0), (2, 2, 1)], max_len=3, vocab=3)
    assert b.symbols.shape == (2, 3)
    assert list(b.lengths) == [2, 3]
    assert b.symbols[0, 2] == EOS  # padding
    assert as_message_batch(b, 3, 3) is b


@pytest.mark.parametrize(
    "symbols, lengths",
    [([1, 0], [2]), ([[[1, 0]]], [2]), ([[1, 0]], [2, 2]), ([[1, 0]], 2)],
    ids=["1-d-symbols", "3-d-symbols", "too-many-lengths", "0-d-lengths"],
)
def test_message_batch_rejects_malformed_arrays(symbols, lengths):
    with pytest.raises(AgentError, match="malformed message batch"):
        MessageBatch(symbols, lengths)


def test_sender_gradient_against_finite_differences():
    sp = attr_space()
    s = small_sender(sp)
    msgs = [(1, 2, 0), (2, 0), (0,)]
    meanings = sp.meanings[:3]

    def f(w):
        s.out.W = w
        state = s.encode(meanings)
        return de.reduce_sum(s.score(state, msgs))

    assert grad_check(f, s.out.W) < 1e-7

    def f_enc(w):
        s.encoder.lin.W = w
        state = s.encode(meanings)
        return de.reduce_sum(s.score(state, msgs))

    assert grad_check(f_enc, s.encoder.lin.W) < 1e-7


def test_one_hot_encoder_feeds_the_encode_meaning_rows():
    sp = attr_space()
    s = small_sender(sp)
    ms = [sp.meanings[i] for i in (4, 0, 8, 4)]
    h, c = state_rows(s.encode(ms))
    rows = np.stack([encode_meaning(m, sp, np.float64) for m in ms])
    hc = s.encoder.lin(tensor(rows, dtype=np.float64))
    assert np.array_equal(np.concatenate([h.data, c.data], axis=1), hc.data)


def test_dyck_sender_handles_empty_word():
    sp = dyck_space()
    s = small_sender(sp)
    state = s.encode([()])
    assert state.h.shape == (1, 10) and state.c.shape == (1, 10)
    res = s.emit(state, mode="greedy")
    assert len(res.messages) == 1


# ---------------------------------------------------------------------------
# receiver


def msgs_batch(seqs, vocab=3, max_len=3):
    return MessageBatch.from_sequences(seqs, max_len=max_len, vocab=vocab)


def test_left_branching_read_equals_push_value():
    sp = attr_space()
    r = small_receiver(sp)
    batch = msgs_batch([(1, 2, 0), (2, 0), (1, 1, 2)])
    enc = r.encode(batch, "left", want_trace=True)
    for t, tr in enumerate(enc.trace):
        alive = t < batch.lengths
        np.testing.assert_allclose(
            tr.read.data[alive], tr.push_value.data[alive], atol=1e-12
        )


def test_learned_directives_respect_caps():
    sp = attr_space()
    r = small_receiver(sp, k_u=2.0, k_d=2.0, k_r=2.0)
    enc = r.encode(msgs_batch([(1, 2, 0), (2, 1, 1)]), "learned", want_trace=True)
    for tr in enc.trace:
        for s in (tr.u.data, tr.d.data, tr.r.data):
            assert np.all(s >= 0.0) and np.all(s <= 2.0)


def test_random_branching_draw_granularity():
    sp = attr_space()
    batch = msgs_batch([(1, 1, 1), (2, 2, 2)])
    per_step = small_receiver(sp).encode(
        batch, "random", rng=np.random.default_rng(2), want_trace=True
    )
    us = np.stack([tr.u.data for tr in per_step.trace])
    assert not np.allclose(us[0], us[1])  # fresh draws each step

    fixed = small_receiver(sp, random_resample="per_message").encode(
        batch, "random", rng=np.random.default_rng(2), want_trace=True
    )
    us = np.stack([tr.u.data for tr in fixed.trace])
    assert np.allclose(us[0], us[1]) and np.allclose(us[0], us[2])

    with pytest.raises(AgentError, match="rng"):
        small_receiver(sp).encode(batch, "random")


def test_strategy_parsing():
    assert Strategy.parse("Left_Branching") is Strategy.LEFT_BRANCHING
    assert Strategy.parse("learned") is Strategy.LEARNED
    assert Strategy.parse(Strategy.RANDOM_BRANCHING) is Strategy.RANDOM_BRANCHING
    with pytest.raises(AgentError):
        Strategy.parse("rightmost")


def test_receiver_batching_matches_single():
    sp = attr_space()
    r = small_receiver(sp)
    batch = msgs_batch([(2, 0), (1, 2, 1)])
    joint = state_rows(r.encode(batch, "learned").state)
    for i, seq in enumerate([(2, 0), (1, 2, 1)]):
        solo = state_rows(r.encode(msgs_batch([seq]), "learned").state)
        for a, b in zip(solo, joint, strict=True):
            np.testing.assert_allclose(a.data[0], b.data[i], atol=1e-12)


def test_attr_reconstruction_is_a_distribution():
    sp = attr_space()
    r = small_receiver(sp)
    n = len(sp.meanings)
    enc = r.encode(msgs_batch([(1, 0)] * n), "learned")
    logp = r.reconstruct_logprob(enc, sp.meanings)
    assert np.all(logp.data <= 0.0)
    assert np.exp(logp.data).sum() == pytest.approx(1.0, abs=1e-10)


def test_dyck_reconstruction_mass_is_bounded():
    sp = dyck_space()
    r = small_receiver(sp)
    n = len(sp.meanings)
    enc = r.encode(msgs_batch([(2, 1, 0)] * n), "left")
    logp = r.reconstruct_logprob(enc, sp.meanings)
    assert np.all(logp.data < 0.0)
    total = np.exp(logp.data).sum()
    assert 0.0 < total < 1.0  # meanings are a strict subset of token strings


def test_greedy_decode_shapes():
    sp = attr_space()
    r = small_receiver(sp)
    enc = r.encode(msgs_batch([(1, 0), (2, 2, 0)]), "learned")
    decoded = r.greedy_decode(enc)
    assert len(decoded) == 2
    for d in decoded:
        assert len(d) == 2 and all(0 <= v < 3 for v in d)

    dy = dyck_space()
    rd = small_receiver(dy)
    enc = rd.encode(msgs_batch([(1, 0), (2, 2, 0)]), "left")
    for d in rd.greedy_decode(enc):
        assert len(d) <= dy.l_max and all(0 <= t < 2 * dy.k for t in d)


def test_greedy_decode_picks_argmax_meaning():
    sp = attr_space()
    r = small_receiver(sp)
    n = len(sp.meanings)
    enc = r.encode(msgs_batch([(1, 2, 0)] * n), "learned")
    logp = r.reconstruct_logprob(enc, sp.meanings).data
    best = sp.meanings[int(np.argmax(logp))]
    assert r.greedy_decode(enc)[:1] == [best]


def unmasked_greedy_decode(r, enc):
    """The decode loop with every row kept running until all are done."""
    end = 2 * r.space.k
    h, c = state_rows(enc.state)
    n = h.shape[0]
    x = de.zeros((n, r.embedding), dtype=r.dtype)
    done = np.zeros(n, dtype=bool)
    words = [[] for _ in range(n)]
    for t in range(r.space.l_max):
        if t > 0:
            x = r.dec_emb(prev)
        h, c = r.dec_cell.step(x, h, c)
        sym = r.dec_out(h).data.argmax(axis=1)
        for b in range(n):
            if not done[b]:
                if sym[b] == end:
                    done[b] = True
                else:
                    words[b].append(int(sym[b]))
        if done.all():
            break
        prev = np.where(done, end, sym)
    return [tuple(w) for w in words]


def test_greedy_decode_skipping_finished_rows_decodes_the_same():
    dy = enumerate_dyck(2, 8)
    lengths = set()
    for seed in range(6):
        rd = small_receiver(dy, seed=seed)
        # larger weights spread the decoded lengths
        rd.set_parameters(
            {k: de.Tensor._wrap(t.data * 3.0) for k, t in rd.named_parameters().items()}
        )
        msgs = list(itertools.product((1, 2), repeat=2))
        enc = rd.encode(msgs_batch([m + (0,) for m in msgs]), "learned")
        got = rd.greedy_decode(enc)
        assert got == unmasked_greedy_decode(rd, enc)
        lengths.update(len(w) for w in got)
    assert len(lengths) >= 2  # some rows finished while others ran on


def looped_dyck_logprob(r, enc, meanings):
    """The Dyck teacher-forced log-likelihood as its own per-step loop, with
    the targets padded row by row and a 0/1 mask per step."""
    end = 2 * r.space.k
    lengths = np.array([len(m) for m in meanings])
    t_tot = int(lengths.max()) + 1  # every word scores its tokens then END
    n = len(meanings)
    targets = np.full((n, t_tot), end, dtype=np.int64)
    for b, m in enumerate(meanings):
        targets[b, : len(m)] = m
    h, c = state_rows(enc.state)
    x = de.zeros((n, r.embedding), dtype=r.dtype)
    total = None
    for t in range(t_tot):
        alive = t <= lengths
        if t > 0:
            x = r.dec_emb(targets[:, t - 1])
        h, c = r.dec_cell.step(x, h, c, alive)
        term = de.take_last(de.log_softmax(r.dec_out(h)), targets[:, t])
        if not alive.all():
            term = de.mul(term, de.Tensor._wrap(alive.astype(r.dtype)))
        total = term if total is None else de.add(total, term)
    return total


def test_dyck_reconstruction_equals_the_looped_likelihood():
    dy = enumerate_dyck(2, 6)
    meanings = [dy.meanings[i] for i in (0, 5, 1, 12, 3, 0, 20, 50)]
    assert {len(m) for m in meanings} == {0, 2, 4, 6}
    msgs = msgs_batch([(1, 2, 0), (2, 0), (1, 1, 2), (0,), (2, 2, 0), (1, 0), (2, 1, 1), (0,)])
    weights = tensor(np.random.default_rng(3).standard_normal(len(meanings)), dtype=np.float64)
    r = small_receiver(dy, seed=4)
    params = r.named_parameters()
    out = []
    for logprob in (r.reconstruct_logprob, lambda enc, ms: looped_dyck_logprob(r, enc, ms)):
        with Tape() as tape:
            enc = r.encode(msgs, "learned")
            lp = logprob(enc, meanings)
            loss = de.reduce_sum(de.mul(lp, weights))
        grads = backward(tape, loss)
        out.append((lp.data, {k: grads[t] for k, t in params.items()}))
    (lp_got, g_got), (lp_want, g_want) = out
    assert np.array_equal(lp_got, lp_want)
    # the decoder runs once per node, whose cotangents add rows in another order
    for k, g in g_want.items():
        np.testing.assert_allclose(g_got[k], g, rtol=0, atol=1e-12 * max(1.0, np.abs(g).max()), err_msg=k)
    assert np.any(g_got["dec_emb.table"] != 0)


def test_prior_is_a_distribution_over_messages():
    sp = attr_space()
    r = small_receiver(sp, with_prior=True, max_len=2)
    msgs = all_messages(3, 2)
    batch = msgs_batch(msgs, max_len=2)
    enc = r.encode(batch, "learned")
    logp = r.message_log_prior(batch, enc.reads)
    assert np.exp(logp.data).sum() == pytest.approx(1.0, abs=1e-10)
    step = de.log_softmax(r.prior_out(enc.reads[0][0]))
    np.testing.assert_allclose(np.exp(step.data).sum(axis=1), 1.0, atol=1e-12)


def test_message_log_prior_needs_a_read_per_position():
    r = small_receiver(attr_space(), with_prior=True)
    batch = msgs_batch([(1, 2, 0), (2, 0)])
    enc = r.encode(batch, "learned")
    assert len(enc.reads) == 4  # the zero read, then one per position
    r.message_log_prior(batch, enc.reads[:3])  # position t reads reads[t]
    with pytest.raises(AgentError, match="need 3 reads, got 2"):
        r.message_log_prior(batch, enc.reads[:2])


def test_missing_prior_raises():
    sp = attr_space()
    r = small_receiver(sp, with_prior=False)
    batch = msgs_batch([(1, 0)])
    enc = r.encode(batch, "learned")
    with pytest.raises(MissingPriorError):
        r.message_log_prior(batch, enc.reads)
    assert not r.has_prior


def test_prior_presence_does_not_change_shared_init():
    sp = attr_space()
    with_p = small_receiver(sp, seed=11, with_prior=True)
    without = small_receiver(sp, seed=11, with_prior=False)
    pa = with_p.named_parameters()
    pb = without.named_parameters()
    assert set(pb) | {"prior_out.W", "prior_out.b"} == set(pa)
    for name, t in pb.items():
        assert np.array_equal(t.data, pa[name].data), name


def test_named_parameters_roundtrip_with_adam():
    sp = attr_space()
    r = small_receiver(sp, with_prior=True)
    params = r.named_parameters()
    assert "cell.W" in params and "to_u.w" in params and "heads.0.W" in params
    grads = {k: np.ones_like(t.data) for k, t in params.items()}
    st = de.AdamState(lr=0.01, l2=0.0)
    newp = de.adam_step(st, params, grads)
    r.set_parameters(newp)
    after = r.named_parameters()
    for k in params:
        assert not np.array_equal(after[k].data, params[k].data), k
        assert after[k] is newp[k]


def spread_params(r, factor=4.0):
    # at fresh init every directive sits near sigmoid(0)*cap = 1 and the
    # pop/push subgradients are mostly zero (reads never dig past the top
    # entry); scaling the parameters spreads the gates across (0, cap)
    scaled = {
        k: tensor(factor * t.data, dtype=t.dtype)
        for k, t in r.named_parameters().items()
    }
    r.set_parameters(scaled)
    return r


def test_receiver_gradients_flow_through_stack_heads():
    sp = attr_space()
    r = spread_params(small_receiver(sp, seed=2, max_len=6))
    batch = msgs_batch(
        [(1, 2, 1, 2, 1, 0), (2, 1, 1, 0), (1, 1, 2, 2, 0), (2, 2, 2, 1, 1, 1)],
        max_len=6,
    )
    meanings = sp.meanings[:4]
    with Tape() as tape:
        enc = r.encode(batch, "learned")
        loss = de.reduce_sum(r.reconstruct_logprob(enc, meanings))
    g = backward(tape, loss)
    for name in ("to_u.w", "to_d.w", "to_r.w", "to_value.W", "cell.W", "emb.table"):
        got = g[r.named_parameters()[name]]
        assert np.abs(got).max() > 0.0, name


def test_receiver_gradient_against_finite_differences():
    sp = attr_space()
    batch = msgs_batch([(1, 2, 0), (2, 0)])
    meanings = sp.meanings[:2]
    rng = np.random.default_rng(12)
    for pname in ("to_u.w", "to_value.W"):
        ok = False
        for seed in range(40):
            r = small_receiver(sp, seed=100 + seed)

            def f(x):
                r.set_parameters({pname: x})
                enc = r.encode(batch, "learned")
                return de.reduce_sum(r.reconstruct_logprob(enc, meanings))

            x0 = r.named_parameters()[pname]
            if kink_margin(f, x0) < 1e-3:
                continue
            assert grad_check(f, x0) < 1e-6, pname
            ok = True
            break
        assert ok, f"no kink-free point found for {pname}"


def test_reconstruct_rejects_foreign_meanings():
    sp = attr_space()
    r = small_receiver(sp)
    enc = r.encode(msgs_batch([(1, 0)]), "learned")
    with pytest.raises(Exception, match="not in this space"):
        r.reconstruct_logprob(enc, [(9, 9)])
    with pytest.raises(AgentError, match="meanings"):
        r.reconstruct_logprob(enc, sp.meanings[:2])


def test_truncated_message_has_no_eos_term():
    sp = attr_space()
    r = small_receiver(sp, with_prior=True)
    full = msgs_batch([(1, 1, 1)])  # truncated at max_len=3, no EOS
    enc = r.encode(full, "learned")
    lp_full = r.message_log_prior(full, enc.reads).data[0]
    # manually: sum of the three symbol terms only
    expect = 0.0
    for t in range(3):
        read, node = enc.reads[t]
        step = de.log_softmax(r.prior_out(read)).data[node[0]]
        expect += step[full.symbols[0, t]]
    assert lp_full == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# prefix-shared encode against a row-level reference


def row_encode(r, batch, strategy, rng=None, depths=None):
    """The receiver's encode run once per row (no prefix sharing): the
    reference ``Receiver.encode`` must agree with. ``depths``, if given,
    collects the stack depth after each step."""
    strategy = Strategy.parse(strategy)
    n, t_max = batch.symbols.shape
    rows = np.arange(n)
    h, c, read = (de.zeros((n, r.hidden), dtype=r.dtype) for _ in range(3))
    stack = StackState.empty(r.hidden, batch=n, dtype=r.dtype)
    reads, trace = [read], []
    ones = Tensor._wrap(np.ones(n, dtype=r.dtype))
    frozen_draws = None
    if strategy is Strategy.RANDOM_BRANCHING and r.random_resample == "per_message":
        frozen_draws = r._random_directives(rng, n)
    for t in range(t_max):
        alive = t < batch.lengths
        x = r.emb(batch.symbols[:, t])
        h, c = r.cell.step(de.concat([x, read]), h, c, alive)
        v = de.tanh(r.to_value(h))
        if strategy is Strategy.LEARNED:
            u = de.mul(de.sigmoid(r.to_u(h)), r.k_u)
            d = de.mul(de.sigmoid(r.to_d(h)), r.k_d)
            rr = de.mul(de.sigmoid(r.to_r(h)), r.k_r)
        elif strategy is Strategy.LEFT_BRANCHING:
            u = d = rr = ones
        elif frozen_draws is not None:
            u, d, rr = frozen_draws
        else:
            u, d, rr = r._random_directives(rng, n)
        stack, read = stack_step(
            stack, StackDirectives(v=v, u=u, d=d, r=rr), alive=alive, prev_read=read
        )
        if depths is not None:
            depths.append(stack.depth)
        reads.append(read)
        trace.append(StepTrace(push_value=v, read=read, u=u, d=d, r=rr))
    return EncodeResult(NodeState(h, c, rows), [(read, rows) for read in reads], trace)


# duplicates, shared prefixes, finished rows next to running ones, a message
# cut off at max_len and a lone EOS
SHARED_SEQS = [
    (1, 2, 1, 0), (1, 2, 1, 0), (1, 2, 0), (2, 0), (1, 2, 1, 2, 1),
    (0,), (1, 2, 2, 0), (2, 0), (1, 1, 2, 1, 2), (1, 2, 1, 2, 0),
]
ENCODE_CASES = [
    ("learned", "per_step"), ("left", "per_step"), ("random", "per_step"), ("random", "per_message"),
]


def _encode_outputs(enc):
    out = [*state_rows(enc.state), *row_reads(enc)]
    for tr in enc.trace:
        out += [tr.push_value, tr.read, tr.u, tr.d, tr.r]
    return out


def _record_stacks(monkeypatch):
    # the (depth, batch) of the stack after each of the receiver's steps
    seen = []

    def recording(state, directives, **kw):
        state, read = stack_step(state, directives, **kw)
        seen.append((state.depth, state.batch))
        return state, read

    monkeypatch.setattr(agents_module, "stack_step", recording)
    return seen


def _encode_grads(r, encode):
    # gradients of every parameter under a loss that reads every output
    with Tape() as tape:
        enc = encode()
        outs = _encode_outputs(enc)
        rng = np.random.default_rng(17)
        loss = None
        for o in outs:
            term = de.reduce_sum(de.mul(o, tensor(rng.normal(size=o.shape), dtype=np.float64)))
            loss = term if loss is None else de.add(loss, term)
    g = backward(tape, loss)
    return enc, {name: g[p] for name, p in r.named_parameters().items()}


@pytest.mark.parametrize("strategy,resample", ENCODE_CASES)
def test_prefix_shared_encode_matches_row_encode(strategy, resample, monkeypatch):
    sp = attr_space()
    r = spread_params(small_receiver(sp, seed=4, max_len=5, random_resample=resample))
    batch = msgs_batch(SHARED_SEQS, max_len=5)
    stacks, ref_depths = _record_stacks(monkeypatch), []
    enc, got = _encode_grads(
        r, lambda: r.encode(batch, strategy, rng=np.random.default_rng(8), want_trace=True)
    )
    ref, want = _encode_grads(
        r, lambda: row_encode(r, batch, strategy, np.random.default_rng(8), ref_depths)
    )
    for a, b in zip(_encode_outputs(enc), _encode_outputs(ref), strict=True):
        assert a.shape == b.shape
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)
    for name, g in want.items():
        np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-12 * max(1.0, np.abs(g).max()))
    # the same stack program: equal depth after the same prunes, every step
    assert [depth for depth, _ in stacks] == ref_depths


def test_random_draws_are_unchanged_by_node_sharing():
    sp = attr_space()
    batch = msgs_batch(SHARED_SEQS, max_len=5)
    for resample in ("per_step", "per_message"):
        r = small_receiver(sp, max_len=5, random_resample=resample)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        enc = r.encode(batch, "random", rng=rng_a, want_trace=True)
        ref = row_encode(r, batch, "random", rng_b)
        for tr, tr_ref in zip(enc.trace, ref.trace, strict=True):
            for a, b in ((tr.u, tr_ref.u), (tr.d, tr_ref.d), (tr.r, tr_ref.r)):
                np.testing.assert_array_equal(a.data, b.data)
        assert rng_a.random() == rng_b.random()  # the same number of draws


def test_encode_runs_one_node_per_distinct_prefix(monkeypatch):
    stacks = _record_stacks(monkeypatch)
    sp = attr_space()
    r = small_receiver(sp, max_len=5)
    batch = msgs_batch(SHARED_SEQS, max_len=5)
    n, vocab = len(batch), r.vocab
    for strategy in ("learned", "left"):
        stacks.clear()
        nodes = [node for _, node in r.encode(batch, strategy).reads[1:]]
        for t, node in enumerate(nodes):
            # EOS-padded prefixes up to t, with finished rows marked
            prefixes = {
                (tuple(batch.symbols[b, : t + 1]), bool(t < batch.lengths[b])) for b in range(n)
            }
            assert node.max() + 1 == len(prefixes) <= min(vocab ** (t + 1), n)
            # rows share a node exactly when they share a prefix
            for a in range(n):
                for b in range(n):
                    same = np.array_equal(batch.symbols[a, : t + 1], batch.symbols[b, : t + 1])
                    assert (node[a] == node[b]) == same
        # the stack runs on the nodes
        assert [width for _, width in stacks] == [node.max() + 1 for node in nodes]
    enc = r.encode(batch, "random", rng=np.random.default_rng(0))
    assert all(np.array_equal(node, np.arange(n)) for _, node in enc.reads)


def test_encode_gathers_per_row_only_for_the_trace():
    batch = msgs_batch(SHARED_SEQS, max_len=5)
    t_max = batch.symbols.shape[1]
    gathers, reads = {}, {}
    for with_prior, want_trace in ((False, False), (True, False), (False, True)):
        r = small_receiver(attr_space(), max_len=5, with_prior=with_prior)
        with Tape() as tape:
            enc = r.encode(batch, "learned", want_trace=want_trace)
        gathers[with_prior, want_trace] = [op for *_, op in tape._nodes].count("gather_rows")
        reads[with_prior, want_trace] = enc.reads
    # the zero read, then one per position, each on its step's nodes
    for rs in reads.values():
        assert len(rs) == t_max + 1
        assert [read.shape[0] for read, _ in rs] == [node.max() + 1 for _, node in rs]
    assert all(node.max() + 1 < len(batch) for _, node in reads[True, False])
    # a prior gathers nothing; every step of this batch shares nodes, so the
    # trace is one gather per step
    assert gathers[True, False] == gathers[False, False]
    assert gathers[False, True] == gathers[False, False] + t_max


def row_message_log_prior(r, batch, reads_on_rows):
    """The prior head projecting reads already gathered to rows: the
    reference ``message_log_prior``, which projects nodes, must agree with."""
    total = None
    for t in range(batch.symbols.shape[1]):
        term = de.take_last(de.log_softmax(r.prior_out(reads_on_rows[t])), batch.symbols[:, t])
        if not (t < batch.lengths).all():
            term = de.mul(term, de.Tensor._wrap((t < batch.lengths).astype(r.dtype)))
        total = term if total is None else de.add(total, term)
    return total


def row_attr_logprob(r, enc, meanings):
    """The attribute heads on the final state gathered to rows: the reference
    ``reconstruct_logprob``, which projects nodes, must agree with."""
    h, _ = state_rows(enc.state)
    ints, _ = r.space.rows(meanings)
    total = None
    for a, head in enumerate(r.heads):
        term = de.take_last(de.log_softmax(head(h)), ints[:, a])
        total = term if total is None else de.add(total, term)
    return total


@pytest.mark.parametrize("strategy", ["learned", "left", "random"])
@pytest.mark.parametrize("kind", ["attr", "dyck"])
def test_prior_and_reconstruction_on_nodes_match_the_row_references(kind, strategy):
    space = attr_space() if kind == "attr" else enumerate_dyck(2, 8)
    r = spread_params(small_receiver(space, seed=3, max_len=5, with_prior=True), 2.0)
    batch = msgs_batch(SHARED_SEQS, max_len=5)
    if kind == "attr":
        meanings = [space.meanings[i % len(space.meanings)] for i in (0, 4, 0, 7, 2, 8, 5, 4, 1, 3)]
        recon_rows = lambda enc, ms: row_attr_logprob(r, enc, ms)
    else:
        meanings = SHARED_WORDS[: len(SHARED_SEQS)]
        recon_rows = lambda enc, ms: looped_dyck_logprob(r, enc, ms)
    rng = np.random.default_rng(9)
    weights = [tensor(rng.standard_normal(len(batch)), dtype=np.float64) for _ in range(2)]
    cases = (
        (r.message_log_prior, r.reconstruct_logprob),
        (lambda b, reads: row_message_log_prior(r, b, reads), recon_rows),
    )
    out = []
    for (prior, recon), on_rows in zip(cases, (False, True)):
        with Tape() as tape:
            enc = r.encode(batch, strategy, rng=np.random.default_rng(4))
            lp = prior(batch, row_reads(enc) if on_rows else enc.reads)
            lr = recon(enc, meanings)
            loss = de.add(*(de.reduce_sum(de.mul(t, w)) for t, w in zip((lp, lr), weights)))
        g = backward(tape, loss)
        out.append(((lp.data, lr.data), {k: g[p] for k, p in r.named_parameters().items()}))
    (got, g_got), (want, g_want) = out
    # learned and left share nodes, so the node path projects fewer rows
    assert bool(enc.state.node.max() + 1 < len(batch)) is (strategy != "random")
    for a, b in zip(got, want, strict=True):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    for name, g in g_want.items():
        np.testing.assert_allclose(g_got[name], g, rtol=0, atol=1e-12 * max(1.0, np.abs(g).max()), err_msg=name)
    assert np.any(g_got["prior_out.W"] != 0)
    assert np.any(g_got["heads.0.W" if kind == "attr" else "dec_out.W"] != 0)


def test_frozen_nodes_keep_the_row_level_kink_margin():
    # a finished row pushes a zero-strength entry and then pops it: a kink at
    # exactly 0 that the row-level program reports too
    sp = attr_space()
    r = small_receiver(sp, max_len=5)
    batch = msgs_batch([(1, 0), (1, 2, 1, 2, 0), (1, 2, 1, 2, 0)], max_len=5)
    x0 = r.named_parameters()["to_u.w"]

    def program(encode):
        def f(x):
            r.set_parameters({"to_u.w": x})
            return de.reduce_sum(state_rows(encode().state)[0])

        return f

    got = kink_margin(program(lambda: r.encode(batch, "learned")), x0)
    want = kink_margin(program(lambda: row_encode(r, batch, "learned")), x0)
    assert got == want == 0.0


def test_greedy_decode_once_per_final_node_decodes_every_row():
    batch = msgs_batch(SHARED_SEQS, max_len=5)
    rd = spread_params(small_receiver(enumerate_dyck(2, 8), seed=3, max_len=5))
    enc = rd.encode(batch, "learned")
    assert enc.state.node.max() + 1 < len(batch)  # duplicates share a node
    assert rd.greedy_decode(enc) == unmasked_greedy_decode(rd, enc)
    ra = spread_params(small_receiver(attr_space(), seed=3, max_len=5))
    enc = ra.encode(batch, "learned")
    picks = [head(state_rows(enc.state)[0]).data.argmax(axis=1) for head in ra.heads]
    assert ra.greedy_decode(enc) == [tuple(int(p[b]) for p in picks) for b in range(len(batch))]


# ---------------------------------------------------------------------------
# prefix-shared Dyck encoder against a row-level reference


def row_token_encode(encoder, meanings):
    """The sender's Dyck encoder run once per row (no prefix sharing): the
    reference ``TokenSeqEncoder`` must agree with."""
    tokens, lengths = encoder.space.rows(meanings)
    n = len(lengths)
    h = de.add_bias(de.zeros((n, encoder.h0.shape[0]), dtype=encoder.dtype), encoder.h0)
    c = de.add_bias(de.zeros((n, encoder.c0.shape[0]), dtype=encoder.dtype), encoder.c0)
    for t in range(int(lengths.max()) if n else 0):
        h, c = encoder.cell.step(encoder.emb(tokens[:, t]), h, c, t < lengths)
    return h, c


# k = 2 (openers 0, 1; closers 2, 3), lengths 0 to 8: duplicates, shared
# prefixes and words that end while longer ones sharing their prefix run on
SHARED_WORDS = [
    (0, 2), (0, 2), (0, 2, 0, 2), (0, 2, 0, 2, 1, 3), (0, 2, 0, 2, 1, 3, 0, 2),
    (0, 0, 2, 2), (0, 0, 2, 2, 1, 3), (0, 1, 3, 2), (1, 3), (), (),
    (0, 1, 3, 2, 0, 2, 1, 3), (0, 1, 3, 2, 0, 2, 1, 3), (1, 1, 3, 3),
]
WORD_BATCHES = {
    "shared": SHARED_WORDS, "empty-words": [(), (), ()], "one-word": [(0, 1, 3, 2)], "none": [],
}


def _dyck_encoder():
    encoder = small_sender(enumerate_dyck(2, 8), seed=5).encoder
    rng = np.random.default_rng(6)
    # nonzero initial states, so their use shows
    encoder.set_parameters(
        {name: tensor(rng.normal(size=encoder.h0.shape), dtype=np.float64) for name in ("h0", "c0")}
    )
    return encoder


def _token_encode_grads(encoder, encode):
    with Tape() as tape:
        h, c = encode()
        rng = np.random.default_rng(17)
        loss = de.add(
            de.reduce_sum(de.mul(h, tensor(rng.normal(size=h.shape), dtype=np.float64))),
            de.reduce_sum(de.mul(c, tensor(rng.normal(size=c.shape), dtype=np.float64))),
        )
    g = backward(tape, loss)
    return (h, c), {name: g[p] for name, p in encoder.named_parameters().items()}


@pytest.mark.parametrize("words", WORD_BATCHES.values(), ids=WORD_BATCHES.keys())
def test_prefix_shared_token_encoder_matches_row_encode(words):
    encoder = _dyck_encoder()
    got_out, got = _token_encode_grads(encoder, lambda: state_rows(encoder(words)))
    want_out, want = _token_encode_grads(encoder, lambda: row_token_encode(encoder, words))
    for a, b in zip(got_out, want_out, strict=True):
        assert a.shape == b.shape == (len(words), encoder.h0.shape[0])
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)
    assert set(got) == {"h0", "c0", "emb.table", "cell.W", "cell.b"}
    for name, g in want.items():
        np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-12, err_msg=name)


def test_token_encoder_runs_one_node_per_distinct_prefix(monkeypatch):
    encoder = _dyck_encoder()
    seen, step = [], encoder.cell.step

    def recording(x, h, c, alive, parent):
        # the rows the step runs on: its inputs', and h and c regrouped by parent
        seen.append((x.shape[0], len(parent), int(alive.sum())))
        return step(x, h, c, alive, parent)

    monkeypatch.setattr(encoder.cell, "step", recording)
    encoder(SHARED_WORDS)
    want = []
    for t in range(max(map(len, SHARED_WORDS))):
        prefixes = {(w[: t + 1], len(w) > t) for w in SHARED_WORDS}
        live = sum(running for _, running in prefixes)
        want.append((len(prefixes), len(prefixes), live))
    assert seen == want
    assert sum(n for n, _, _ in seen) < len(SHARED_WORDS) * len(seen)


# ---------------------------------------------------------------------------
# the node loop (emission, scoring, Dyck decoder) against per-row references


def row_unroll(cell, emb, out, h, c, steps, stop, next_symbol):
    """The decoding loop run once per row (no prefix sharing): the reference
    the node loop ``agents._unroll`` must agree with."""
    n = h.shape[0]
    alive = np.ones(n, dtype=bool)
    x = de.zeros((n, emb.table.shape[1]), dtype=h.dtype)
    symbols, alives, logits = [], [], []
    for t in range(steps):
        if t > 0:
            x = emb(symbols[-1])
        h, c = cell.step(x, h, c, alive)
        z = out(h)
        sym = np.where(alive, next_symbol(t, z.data), stop)
        symbols.append(sym)
        alives.append(alive)
        logits.append(z)
        alive = alive & (sym != stop)
        if not alive.any():
            break
    return np.stack(symbols, axis=1), np.stack(alives, axis=1), logits


# duplicates, so rows share roots and prefixes
DYCK_MEANINGS = [(), (0, 2), (0, 2), (0, 1, 3, 2), (1, 3), (0, 2), (), (1, 3, 0, 2), (0, 1, 3, 2)]
ATTR_MEANINGS = [(0, 1), (2, 2), (0, 1), (1, 0), (0, 1), (2, 2), (1, 1)]


def _sender_case(kind):
    if kind == "dyck":
        return spread_params(small_sender(enumerate_dyck(2, 4), seed=7, max_len=4), 3.0), DYCK_MEANINGS
    return spread_params(small_sender(attr_space(), seed=7, max_len=4), 3.0), ATTR_MEANINGS


def _sampler(rng):
    return lambda t, z: agents_module._sample_rows(np.exp(de.log_softmax_array(z)[0]), rng)


def _emit_on_nodes(s, state, mode, batch):
    if mode == "score":
        return (s.score(state, batch),)
    res = s.emit(state, mode, rng=np.random.default_rng(5))
    return res.batch.symbols, res.log_probs, res.entropies, res.step_log_probs, res.step_entropies


def _emit_on_rows(s, state, mode, batch):
    if mode == "score":
        pick = lambda t, z: batch.symbols[:, t]
    elif mode == "sample":
        pick = _sampler(np.random.default_rng(5))
    else:
        pick = lambda t, z: de.log_softmax_array(z)[0].argmax(axis=1)
    h, c = state_rows(state)
    symbols, alive, logits = row_unroll(s.cell, s.emb, s.out, h, c, s.max_len, EOS, pick)
    logp, ent, step_lp, step_ent = de.categorical(logits, symbols, alive)
    return (logp,) if mode == "score" else (symbols, logp, ent, step_lp, step_ent)


def _emit_both(s, meanings, mode):
    """(outputs, gradients of every sender parameter) of the node loop and of
    the per-row reference, for one emission ``mode`` or "score"."""
    msgs = [(1, 2, 0), (2, 0), (1, 2, 1, 1), (0,), (1, 2, 0), (2, 0), (1, 2, 2, 0), (2, 1, 1, 2), (1, 0)]
    batch = MessageBatch.from_sequences(msgs[: len(meanings)], s.max_len, s.vocab)
    rng = np.random.default_rng(11)
    weights = [tensor(rng.standard_normal(len(meanings)), dtype=np.float64) for _ in range(2)]
    results = []
    for emit in (_emit_on_nodes, _emit_on_rows):
        with Tape() as tape:
            res = emit(s, s.encode(meanings), mode, batch)
            tensors = res[1:3] if len(res) > 1 else res  # log S, and H unless scoring
            terms = [de.reduce_sum(de.mul(t, w)) for t, w in zip(tensors, weights)]
            loss = terms[0] if len(terms) == 1 else de.add(*terms)
        g = backward(tape, loss)
        outs = [r.data if isinstance(r, Tensor) else r for r in res]
        results.append((outs, {k: g[p] for k, p in s.named_parameters().items()}))
    return results


@pytest.mark.parametrize("mode", ["sample", "greedy", "score"])
@pytest.mark.parametrize("kind", ["dyck", "attr"])
def test_emission_on_nodes_matches_the_row_loop(kind, mode):
    s, meanings = _sender_case(kind)
    (got, g_got), (want, g_want) = _emit_both(s, meanings, mode)
    if mode != "score":
        # the same draws from the same probabilities: the same symbols
        assert np.array_equal(got[0], want[0])
        assert len({tuple(row) for row in got[0]}) > 1
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    for name, g in g_want.items():
        assert np.any(g != 0) or name in ("encoder.h0", "encoder.c0"), name
        np.testing.assert_allclose(g_got[name], g, rtol=0, atol=1e-12 * max(1.0, np.abs(g).max()), err_msg=name)


@pytest.mark.parametrize("strategy", ["learned", "random"])
def test_dyck_decoder_on_nodes_matches_the_row_loop(strategy):
    dy = enumerate_dyck(2, 8)
    r = spread_params(small_receiver(dy, seed=3, max_len=5), 2.0)
    batch = msgs_batch(SHARED_SEQS, max_len=5)
    meanings = [w for w in SHARED_WORDS[: len(SHARED_SEQS)]]
    weights = tensor(np.random.default_rng(2).standard_normal(len(meanings)), dtype=np.float64)
    out = []
    for logprob in (r.reconstruct_logprob, lambda enc, ms: looped_dyck_logprob(r, enc, ms)):
        with Tape() as tape:
            enc = r.encode(batch, strategy, rng=np.random.default_rng(4))
            lp = logprob(enc, meanings)
            loss = de.reduce_sum(de.mul(lp, weights))
        g = backward(tape, loss)
        out.append((lp.data, {k: g[p] for k, p in r.named_parameters().items()}))
    (lp_got, g_got), (lp_want, g_want) = out
    np.testing.assert_allclose(lp_got, lp_want, rtol=0, atol=1e-12)
    for name, g in g_want.items():
        np.testing.assert_allclose(g_got[name], g, rtol=0, atol=1e-12 * max(1.0, np.abs(g).max()), err_msg=name)
    assert np.any(g_got["dec_cell.W"] != 0)


def _record_steps(monkeypatch, cell):
    # per step of ``cell``: (nodes it runs on, live nodes)
    seen, step = [], cell.step

    def recording(x, h, c, alive=None, parent=None):
        seen.append((x.shape[0], x.shape[0] if alive is None else int(alive.sum())))
        return step(x, h, c, alive, parent)

    monkeypatch.setattr(cell, "step", recording)
    return seen


def _distinct_prefixes(roots, symbols, alive):
    # per step t: distinct (root, symbols before t) of all rows and of live rows
    out = []
    for t in range(symbols.shape[1]):
        keys = [(roots[b], tuple(symbols[b, :t])) for b in range(len(roots))]
        out.append((len(set(keys)), len({k for k, a in zip(keys, alive[:, t]) if a})))
    return out


@pytest.mark.parametrize("kind", ["dyck", "attr"])
def test_emission_runs_one_node_per_distinct_prefix(kind, monkeypatch):
    s, meanings = _sender_case(kind)
    seen = _record_steps(monkeypatch, s.cell)
    res = s.emit(s.encode(meanings), "sample", rng=np.random.default_rng(5))
    alive = np.arange(res.batch.symbols.shape[1]) < res.batch.lengths[:, None]
    want = _distinct_prefixes(meanings, res.batch.symbols, alive)
    assert seen == want
    assert sum(n for n, _ in seen) < len(meanings) * len(seen)


def test_dyck_decoder_runs_one_node_per_distinct_prefix(monkeypatch):
    dy = enumerate_dyck(2, 8)
    r = small_receiver(dy, seed=3, max_len=5)
    seen = _record_steps(monkeypatch, r.dec_cell)
    batch = msgs_batch(SHARED_SEQS, max_len=5)
    meanings = [SHARED_WORDS[i] for i in (0, 1, 0, 3, 0, 9, 0, 3, 8, 1)]
    r.reconstruct_logprob(r.encode(batch, "learned"), meanings)
    lengths = np.array([len(m) for m in meanings])
    end = 2 * dy.k
    targets = np.full((len(meanings), lengths.max() + 1), end)
    for b, m in enumerate(meanings):
        targets[b, : len(m)] = m
    alive = np.arange(targets.shape[1]) <= lengths[:, None]
    messages = [tuple(row) for row in batch.symbols.tolist()]
    assert seen == _distinct_prefixes(messages, targets, alive)
    assert seen[0][0] == len(set(messages)) < len(messages)


def _gathers(monkeypatch, *modules):
    # gather_rows calls other than the embedding lookups of ``modules``
    tables = [t for m in modules for k, t in m.named_parameters().items() if k.endswith("table")]
    seen, gather = [], de.gather_rows

    def recording(tensors, idx):
        tensors = tuple(tensors)
        if not any(t is table for t in tensors for table in tables):
            seen.append([t.shape for t in tensors])
        return gather(tensors, idx)

    monkeypatch.setattr(de, "gather_rows", recording)
    return seen


def _scatters(monkeypatch, *modules):
    # (rows, width) of each row-gather cotangent scattered back, other than
    # into the embedding tables of ``modules``
    tables = {t.shape for m in modules for k, t in m.named_parameters().items() if k.endswith("table")}
    seen, scatter = [], de._scatter_rows

    def recording(g, idx, n_rows):
        if (n_rows, *g.shape[1:]) not in tables:
            seen.append((n_rows, *g.shape[1:]))
        return scatter(g, idx, n_rows)

    monkeypatch.setattr(de, "_scatter_rows", recording)
    return seen


def test_no_gather_where_every_map_is_the_identity(monkeypatch):
    from eclab.metrics import comacc

    # the random receiver's nodes are its rows, so the decoder's roots are too
    dy = enumerate_dyck(2, 8)
    r = small_receiver(dy, seed=3, max_len=5)
    batch = msgs_batch(SHARED_SEQS, max_len=5)
    meanings = SHARED_WORDS[: len(SHARED_SEQS)]
    gathers, scatters = _gathers(monkeypatch, r), _scatters(monkeypatch, r)
    for strategy, none in (("random", True), ("learned", False)):
        enc = r.encode(batch, strategy, rng=np.random.default_rng(0))
        gathers.clear()
        scatters.clear()
        with Tape() as tape:
            loss = de.reduce_sum(r.reconstruct_logprob(enc, meanings))
        backward(tape, loss)
        # the decoder's regroups and its logits' gathers run inside its
        # lstm_cell and categorical records, and an identity map moves nothing
        assert gathers == [], strategy
        assert (scatters == []) is none, strategy
    # comacc's greedy emission over distinct meanings: one root per meaning, in
    # row order; under random the whole evaluation gathers nothing
    sp = attr_space()
    s, ra = small_sender(sp), small_receiver(sp)
    gathers = _gathers(monkeypatch, s, ra)
    with Tape():
        s.emit(s.encode(sp.meanings), "greedy")
    assert gathers == []
    comacc(s, ra, sp.meanings, "random", eval_rng=np.random.default_rng(0))
    assert gathers == []


@pytest.mark.parametrize("preset", ["smoke-attrval", "smoke-dyck"])
def test_a_rewo_step_gathers_no_hidden_state_to_rows(preset, monkeypatch):
    # hidden 24 differs from the embedding (32), the vocab (10), n_val (4) and
    # the Dyck decoder's tokens (9), so a [B, 24] gather is a state's; the
    # vocab is wider than the stack's strengths (at most max_len 8 columns),
    # so a gather 10 wide would be the emission's or the prior's logits
    config = runner.resolve_preset(preset, beta_mode="rewo", hidden=24, batch_size=64, vocab=10)
    state = runner.start(config, np.float32)
    shapes, backward = [], game.backward

    def recording(tape, *args, **kwargs):
        shapes.extend(o.shape for outs, _, _, op in tape._nodes if op == "gather_rows" for o in outs)
        return backward(tape, *args, **kwargs)

    monkeypatch.setattr(game, "backward", recording)
    state.step()
    # rows appear only inside the categoricals, which gather their own logits
    assert all(width != [config.vocab] for n, *width in shapes)
    assert (64, 24) not in shapes
    # what is 24 wide regroups the stack and its read from node to parent node
    assert all(n < 64 for n, *width in shapes if width == [24])
