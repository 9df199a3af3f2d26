"""Sender and receiver networks.

The sender encodes a meaning into an LSTM state and emits a discrete message
symbol-by-symbol (symbol 0 is EOS; emission stops at EOS or at ``max_len``).
The receiver consumes the message with an LSTM controller coupled to a
differentiable stack: at each step the controller sees the symbol embedding
concatenated with the previous stack read, and produces a push value plus
pop/push/read strengths. Reconstruction conditions on the final controller
state. An optional prior head predicts the next symbol from the previous
read, giving a learned message prior.

Everything here is batched: meanings/messages come in lists, tensors carry a
leading batch axis, and per-item termination freezes finished rows (h, c and
the stack stop changing once an item's EOS has been processed, which matches
running each item on its own). The LSTM cells and ``stack_step`` take the
bool ``alive`` mask directly: a frozen row keeps its h and c, pops and pushes
nothing and keeps its last read, inside the fused op.

An LSTM's state after step t depends only on the token prefix up to t, so
both token LSTMs, the sender's Dyck encoder (``TokenSeqEncoder``) and the
receiver (``Receiver.encode``), run each step on *nodes*, one per distinct
prefix, rather than on rows: step t has at most min(S^(t+1), B) of them for
S symbols and batch B, built by the one helper ``_prefix_nodes``. Rows whose
sequence has ended stay as frozen nodes (``alive`` False), so pruning and
kink margins see the same program as a row-level encode. ``_to_rows``
gathers a node's state from its parent's and the outputs back to rows. The
random strategy draws per row, so it starts from one node per row and its
nodes stay the rows: no gather runs.

One decoding loop, ``_unroll``, serves the sender's emission and scoring and
the Dyck receiver's teacher-forced log-likelihood and greedy decoding. Each of
log S with entropy H, log R and the prior's log P is one
``diffengine.categorical`` record over per-step logits. Meanings enter as
tuples and are turned into int rows by ``MeaningSpace.rows``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import diffengine as de
from .diffengine import Tensor
from .neural_stack import StackDirectives, StackState, stack_step

EOS = 0


class AgentError(ValueError):
    """Bad message/meaning input or inconsistent agent configuration."""


class MissingPriorError(AgentError):
    """A prior quantity was requested from a receiver built without one."""


class Strategy(enum.Enum):
    """How the receiver's stack directives are produced."""

    LEARNED = "learned"
    LEFT_BRANCHING = "left"
    RANDOM_BRANCHING = "random"

    @classmethod
    def parse(cls, value):
        if isinstance(value, cls):
            return value
        table = {
            "learned": cls.LEARNED,
            "left": cls.LEFT_BRANCHING,
            "left_branching": cls.LEFT_BRANCHING,
            "random": cls.RANDOM_BRANCHING,
            "random_branching": cls.RANDOM_BRANCHING,
        }
        try:
            return table[str(value).lower()]
        except KeyError:
            raise AgentError(f"unknown strategy {value!r}") from None


# ---------------------------------------------------------------------------
# parameter containers


class ParamModule:
    """Mixin giving flat name->Tensor views over nested parameters."""

    _params: tuple = ()
    _subs: tuple = ()

    def _walk(self, prefix):
        # (owner, attribute, flat name) of every parameter, own ones first, then
        # each sub-module's (list items by index): one order for both views
        for name in self._params:
            yield self, name, prefix + name
        for name in self._subs:
            sub = getattr(self, name)
            if isinstance(sub, (list, tuple)):
                for i, item in enumerate(sub):
                    yield from item._walk(f"{prefix}{name}.{i}.")
            elif sub is not None:
                yield from sub._walk(f"{prefix}{name}.")

    def named_parameters(self, prefix=""):
        return {key: getattr(owner, name) for owner, name, key in self._walk(prefix)}

    def set_parameters(self, table, prefix=""):
        """Rebind parameters from ``table`` (missing keys are left alone)."""
        for owner, name, key in self._walk(prefix):
            t = table.get(key)
            if t is not None:
                setattr(owner, name, t)


def _glorot(rng, n_in, n_out, dtype):
    limit = math.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out)).astype(dtype)


class Linear(ParamModule):
    _params = ("W", "b")

    def __init__(self, rng, n_in, n_out, dtype):
        self.W = Tensor._wrap(_glorot(rng, n_in, n_out, dtype))
        self.b = de.zeros(n_out, dtype=dtype)

    def __call__(self, x):
        return de.add_bias(de.matmul(x, self.W), self.b)


class ScalarHead(ParamModule):
    """Linear map from hidden state to one scalar per row."""

    _params = ("w", "b")

    def __init__(self, rng, n_in, dtype):
        self.w = Tensor._wrap(_glorot(rng, n_in, 1, dtype).ravel())
        self.b = de.zeros((), dtype=dtype)

    def __call__(self, h):
        return de.add(de.matmul(h, self.w), self.b)


class Embedding(ParamModule):
    _params = ("table",)

    def __init__(self, rng, n_symbols, dim, dtype):
        init = (0.1 * rng.standard_normal((n_symbols, dim))).astype(dtype)
        self.table = Tensor._wrap(init)

    def __call__(self, idx):
        return de.take_rows(self.table, np.asarray(idx))


class LstmCell(ParamModule):
    """Packed-gate LSTM (order i, f, g, o); forget-gate bias starts at 1.

    A step is one ``diffengine.lstm_cell`` record with a hand-written
    backward. Finished rows are frozen by passing the bool ``alive`` mask to
    ``step``: the op returns their ``h``/``c`` unchanged, so the freeze needs
    no (keep, drop) float mask tensors and no scale_rows/add pairs.
    """

    _params = ("W", "b")

    def __init__(self, rng, n_in, hidden, dtype):
        self.hidden = hidden
        self.W = Tensor._wrap(_glorot(rng, n_in + hidden, 4 * hidden, dtype))
        b = np.zeros(4 * hidden, dtype=dtype)
        b[hidden : 2 * hidden] = 1.0
        self.b = Tensor._wrap(b)

    def step(self, x, h, c, alive=None):
        """One step over a batch, returning ``(h2, c2)``. Rows where the
        [B] bool ``alive`` is False (their item already finished) keep their
        ``h`` and ``c``."""
        return de.lstm_cell(x, h, c, self.W, self.b, alive)


def _tile_rows(vec, n):
    return de.add_bias(de.zeros((n, vec.shape[0]), dtype=vec.dtype), vec)


def _unroll(cell, emb, out, state, steps, stop, next_symbol):
    """The decoding loop of the sender and of the Dyck decoder.

    Step t feeds the previous symbol (zeros at t = 0) to ``cell``, projects
    ``h`` with ``out`` and picks with ``next_symbol(t, logits array) -> [B]
    ints``. A row that picked ``stop`` is frozen and repeats ``stop``; the
    loop ends after ``steps`` steps or once every row has stopped. Returns
    int symbols [B, T], the bool [B, T] mask of rows still running at each
    step (their ``stop`` step included) and the T [B, V] logit tensors.
    """
    h, c = state
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


def _prefix_nodes(node, symbols, alive, n_symbols):
    """One step of the prefix-node scheme over [B] rows. A row's new node is
    keyed by its node so far and its symbol, or the end mark ``n_symbols``
    once its sequence has ended. Returns the [B] node of each row, the first
    row of each node and each node's parent."""
    key = node * (n_symbols + 1) + np.where(alive, symbols, n_symbols)
    _, first, new = np.unique(key, return_index=True, return_inverse=True)
    return new, first, node[first]


def _to_rows(idx, *ts):
    """Gather tensors ``ts`` by the int map ``idx``: a step's nodes to its rows,
    or the last step's nodes to this step's parents. No record when ``idx``
    is the identity (every row its own node, or no node with a second child)."""
    return ts if np.array_equal(idx, np.arange(len(idx))) else de.gather_rows(ts, idx)


def _sample_rows(p, rng):
    # invert the row CDFs; clip guards the float32 "probabilities sum to
    # 0.999999" edge
    u = rng.random(p.shape[0])
    cum = np.cumsum(p, axis=1)
    idx = (u[:, None] > cum).sum(axis=1)
    return np.minimum(idx, p.shape[1] - 1)


# ---------------------------------------------------------------------------
# messages


@dataclass(frozen=True)
class Message:
    """One emitted message: symbols include the final EOS unless the message
    was cut off at max length. Log-probs/entropies are per emission step."""

    symbols: tuple
    log_prob: float
    entropy: float
    step_log_probs: tuple
    step_entropies: tuple

    def __len__(self):
        return len(self.symbols)


class MessageBatch:
    """Padded batch view of messages: int symbols [B, T] (EOS-padded past each
    item's length) and lengths [B] counting the EOS step."""

    def __init__(self, symbols, lengths):
        self.symbols = np.asarray(symbols, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.symbols.ndim != 2 or self.lengths.shape != (self.symbols.shape[0],):
            raise AgentError("malformed message batch")

    def __len__(self):
        return self.symbols.shape[0]

    @classmethod
    def from_sequences(cls, seqs, max_len, vocab):
        seqs = [tuple(int(t) for t in s) for s in seqs]
        for s in seqs:
            if not 1 <= len(s) <= max_len:
                raise AgentError(f"message length {len(s)} outside [1, {max_len}]")
            if any(not 0 <= t < vocab for t in s):
                raise AgentError(f"message {s} has symbols outside the alphabet")
            if EOS in s[:-1]:
                raise AgentError(f"message {s} has EOS before its final symbol")
            if s[-1] != EOS and len(s) < max_len:
                raise AgentError(f"message {s} is unterminated but shorter than {max_len}")
        t_max = max(len(s) for s in seqs)
        symbols = np.full((len(seqs), t_max), EOS, dtype=np.int64)
        for b, s in enumerate(seqs):
            symbols[b, : len(s)] = s
        return cls(symbols, np.array([len(s) for s in seqs]))


def as_message_batch(messages, max_len, vocab):
    if isinstance(messages, MessageBatch):
        return messages
    seqs = [m.symbols if isinstance(m, Message) else m for m in messages]
    return MessageBatch.from_sequences(seqs, max_len, vocab)


@dataclass
class EmitResult:
    """An emitted batch. ``messages`` (one ``Message`` per item) is built on
    first access; training and evaluation read only ``batch`` and the
    tensors."""

    batch: MessageBatch
    log_probs: Tensor  # [B], on the active tape
    entropies: Tensor  # [B], sum of per-step emission entropies
    step_log_probs: np.ndarray  # [B, T], log-prob of each emitted symbol
    step_entropies: np.ndarray  # [B, T], emission entropy of each step

    @functools.cached_property
    def messages(self):
        out = []
        for b, m in enumerate(self.batch.lengths.tolist()):
            out.append(
                Message(
                    symbols=tuple(self.batch.symbols[b, :m].tolist()),
                    log_prob=float(self.log_probs.data[b]),
                    entropy=float(self.entropies.data[b]),
                    step_log_probs=tuple(self.step_log_probs[b, :m].tolist()),
                    step_entropies=tuple(self.step_entropies[b, :m].tolist()),
                )
            )
        return out


# ---------------------------------------------------------------------------
# sender


class OneHotEncoder(ParamModule):
    """Attribute-value meanings -> initial (h, c) via a linear map."""

    _subs = ("lin",)

    def __init__(self, rng, space, hidden, dtype):
        self.space = space
        self.hidden = hidden
        self.dtype = dtype
        self.lin = Linear(rng, space.n_att * space.n_val, 2 * hidden, dtype)

    def __call__(self, meanings):
        # the one-hot rows of ``encode_meaning``, set by one scatter
        values, _ = self.space.rows(meanings)
        n_att, n_val = self.space.n_att, self.space.n_val
        rows = np.zeros((len(values), n_att * n_val), dtype=self.dtype)
        rows[np.arange(len(values))[:, None], np.arange(n_att) * n_val + values] = 1.0
        hc = self.lin(Tensor._wrap(rows))
        return (
            de.slice_last(hc, 0, self.hidden),
            de.slice_last(hc, self.hidden, 2 * self.hidden),
        )


class TokenSeqEncoder(ParamModule):
    """Dyck meanings -> final (h, c) of an LSTM over the bracket tokens."""

    _params = ("h0", "c0")
    _subs = ("emb", "cell")

    def __init__(self, rng, space, hidden, embedding, dtype):
        self.space = space
        self.dtype = dtype
        self.emb = Embedding(rng, 2 * space.k, embedding, dtype)
        self.cell = LstmCell(rng, embedding, hidden, dtype)
        self.h0 = de.zeros(hidden, dtype=dtype)
        self.c0 = de.zeros(hidden, dtype=dtype)

    def __call__(self, meanings):
        # nodes grow from one root; ended words stay frozen on the padding token 0
        tokens, lengths = self.space.rows(meanings)
        node = np.zeros(len(lengths), dtype=np.int64)
        h, c = (_tile_rows(v, min(len(node), 1)) for v in (self.h0, self.c0))
        for t in range(int(lengths.max()) if len(node) else 0):
            alive = t < lengths
            node, first, parent = _prefix_nodes(node, tokens[:, t], alive, 2 * self.space.k)
            h, c = _to_rows(parent, h, c)
            h, c = self.cell.step(self.emb(tokens[first, t]), h, c, alive[first])
        return _to_rows(node, h, c)


class Sender(ParamModule):
    """Meaning -> message policy S(M | X)."""

    _subs = ("encoder", "emb", "cell", "out")

    def __init__(
        self,
        space,
        hidden=512,
        embedding=32,
        vocab=4,
        max_len=8,
        rng=None,
        dtype=np.float32,
    ):
        if vocab < 2:
            raise AgentError(f"vocab must be >= 2 (EOS plus content), got {vocab}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.space = space
        self.hidden = hidden
        self.embedding = embedding
        self.vocab = vocab
        self.max_len = max_len
        self.dtype = np.dtype(dtype)
        if space.kind == "attr_val":
            self.encoder = OneHotEncoder(rng, space, hidden, self.dtype)
        else:
            self.encoder = TokenSeqEncoder(rng, space, hidden, embedding, self.dtype)
        self.emb = Embedding(rng, vocab, embedding, self.dtype)
        self.cell = LstmCell(rng, embedding, hidden, self.dtype)
        self.out = Linear(rng, hidden, vocab, self.dtype)

    def encode(self, meanings):
        """Initial LSTM state (h, c), each [B, hidden]."""
        return self.encoder(meanings)

    def _unroll(self, state, next_symbol):
        return _unroll(self.cell, self.emb, self.out, state, self.max_len, EOS, next_symbol)

    def emit(self, state, mode="sample", rng=None):
        """Roll the policy out. ``mode`` is "sample" (needs ``rng``) or
        "greedy"; either way emission stops at EOS or ``max_len``."""
        if mode == "sample":
            if rng is None:
                raise AgentError("sampling emission needs an rng")
            pick = lambda t, z: _sample_rows(np.exp(de.log_softmax_array(z)[0]), rng)
        elif mode == "greedy":
            pick = lambda t, z: de.log_softmax_array(z)[0].argmax(axis=1)
        else:
            raise AgentError(f"unknown emission mode {mode!r}")
        symbols, alive, logits = self._unroll(state, pick)
        return EmitResult(
            MessageBatch(symbols, alive.sum(axis=1)), *de.categorical(logits, symbols, alive)
        )

    def score(self, state, messages):
        """Log S(m | state) for given messages, [B] on the active tape."""
        batch = as_message_batch(messages, self.max_len, self.vocab)
        n = state[0].shape[0]
        if len(batch) != n:
            raise AgentError(f"scored {len(batch)} messages against {n} states")
        symbols, alive, logits = self._unroll(state, lambda t, z: batch.symbols[:, t])
        return de.categorical(logits, symbols, alive)[0]


# ---------------------------------------------------------------------------
# receiver


@dataclass
class StepTrace:
    """Receiver internals for one message position (mainly for analysis).

    ``u``, ``d`` and ``r`` are the directives the strategy produced; the stack
    pops and pushes only on rows still running, and a finished row's ``read``
    is its last read."""

    push_value: Tensor  # v_t, [B, hidden]
    read: Tensor  # r_t as returned by the stack, [B, hidden]
    u: Tensor
    d: Tensor
    r: Tensor


@dataclass
class EncodeResult:
    """Controller output after consuming a message batch.

    ``reads[t]`` is the stack read available *before* position t is consumed
    (``reads[0]`` is the zero vector), which is exactly what the prior head
    conditions on for symbol t.
    """

    final_h: Tensor
    final_c: Tensor
    reads: list
    trace: list | None = None
    nodes: list | None = None  # per step, the [B] node index of each row


class Receiver(ParamModule):
    """Message -> meaning agent R(X | M) with a stack-augmented controller."""

    _subs = (
        "emb",
        "cell",
        "to_value",
        "to_u",
        "to_d",
        "to_r",
        "heads",
        "dec_emb",
        "dec_cell",
        "dec_out",
        "prior_out",
    )

    def __init__(
        self,
        space,
        hidden=512,
        embedding=32,
        vocab=4,
        max_len=8,
        caps=(2.0, 2.0, 2.0),
        with_prior=False,
        random_resample="per_step",
        rng=None,
        dtype=np.float32,
    ):
        if vocab < 2:
            raise AgentError(f"vocab must be >= 2 (EOS plus content), got {vocab}")
        if any(cap <= 0 for cap in caps):
            raise AgentError(f"directive caps must be positive, got {caps}")
        if random_resample not in ("per_step", "per_message"):
            raise AgentError(f"unknown random_resample mode {random_resample!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.space = space
        self.hidden = hidden
        self.embedding = embedding
        self.vocab = vocab
        self.max_len = max_len
        self.k_u, self.k_d, self.k_r = self.caps = tuple(float(c) for c in caps)
        self.random_resample = random_resample
        self.dtype = np.dtype(dtype)
        self.emb = Embedding(rng, vocab, embedding, self.dtype)
        self.cell = LstmCell(rng, embedding + hidden, hidden, self.dtype)
        self.to_value = Linear(rng, hidden, hidden, self.dtype)
        self.to_u = ScalarHead(rng, hidden, self.dtype)
        self.to_d = ScalarHead(rng, hidden, self.dtype)
        self.to_r = ScalarHead(rng, hidden, self.dtype)
        self.heads = None
        self.dec_emb = self.dec_cell = self.dec_out = None
        if space.kind == "attr_val":
            self.heads = [
                Linear(rng, hidden, space.n_val, self.dtype) for _ in range(space.n_att)
            ]
        else:
            n_tok = 2 * space.k + 1  # brackets plus the end-of-word token
            self.dec_emb = Embedding(rng, n_tok, embedding, self.dtype)
            self.dec_cell = LstmCell(rng, embedding, hidden, self.dtype)
            self.dec_out = Linear(rng, hidden, n_tok, self.dtype)
        # created last so configurations with and without a prior draw
        # identical initial values for every shared parameter
        self.prior_out = Linear(rng, hidden, vocab, self.dtype) if with_prior else None

    @property
    def has_prior(self):
        return self.prior_out is not None

    def _random_directives(self, rng, n):
        return tuple(Tensor._wrap(rng.uniform(0.0, k, n).astype(self.dtype)) for k in self.caps)

    def encode(self, messages, strategy, rng=None, want_trace=False):
        """Consume messages with the chosen branching strategy.

        Learned: directives are capped sigmoids of the controller state.
        Left-branching: u = d = r = 1 constants. Random-branching: uniform
        draws in [0, cap], fresh each step or once per message depending on
        ``random_resample``; draws come from ``rng`` and bypass the tape.

        Each step runs once per distinct message prefix (see the module
        docstring); the returned states, reads and traces are per row, and
        ``nodes[t]`` maps each row to its node at step t.
        """
        batch = as_message_batch(messages, self.max_len, self.vocab)
        strategy = Strategy.parse(strategy)
        random = strategy is Strategy.RANDOM_BRANCHING
        if random and rng is None:
            raise AgentError("random branching needs an rng for its draws")
        n, t_max = batch.symbols.shape
        frozen_draws = None
        if random and self.random_resample == "per_message":
            frozen_draws = self._random_directives(rng, n)
        # random draws per row: one node per row, whose keys stay distinct, so no gather runs
        node = np.arange(n) if random else np.zeros(n, dtype=np.int64)
        reads = [de.zeros((n, self.hidden), dtype=self.dtype)]
        trace = [] if want_trace else None
        nodes = []
        for t in range(t_max):
            alive = t < batch.lengths
            node, first, parent = _prefix_nodes(node, batch.symbols[:, t], alive, self.vocab)
            nodes.append(node)
            m = len(first)
            live = alive[first]
            if t == 0:
                h, c, read = (de.zeros((m, self.hidden), dtype=self.dtype) for _ in range(3))
                stack = StackState.empty(self.hidden, batch=m, dtype=self.dtype)
            else:
                h, c, read, *entries = _to_rows(parent, h, c, read, *stack.values, *stack.strengths)
                depth = stack.depth
                stack = replace(
                    stack, values=tuple(entries[:depth]), strengths=tuple(entries[depth:]), batch=m
                )
            x = self.emb(batch.symbols[first, t])
            h, c = self.cell.step(de.concat([x, read]), h, c, live)
            v = de.tanh(self.to_value(h))
            if strategy is Strategy.LEARNED:
                heads = zip((self.to_u, self.to_d, self.to_r), self.caps)
                u, d, r = (de.mul(de.sigmoid(head(h)), k) for head, k in heads)
            elif strategy is Strategy.LEFT_BRANCHING:
                u = d = r = Tensor._wrap(np.ones(m, dtype=self.dtype))
            elif frozen_draws is not None:
                u, d, r = frozen_draws
            else:
                u, d, r = self._random_directives(rng, n)
            # finished rows pop and push nothing and keep their last read
            stack, read = stack_step(
                stack, StackDirectives(v=v, u=u, d=d, r=r), alive=live, prev_read=read
            )
            reads.append(_to_rows(node, read)[0])
            if want_trace:
                v, u, d, r = _to_rows(node, v, u, d, r)
                trace.append(StepTrace(v, reads[-1], u, d, r))
        final_h, final_c = _to_rows(node, h, c)
        return EncodeResult(final_h, final_c, reads, trace, nodes)

    def reconstruct_logprob(self, enc, meanings):
        """log R(meaning | final state), [B] on the active tape: one step per
        attribute head, or the Dyck decoder teacher-forced on a word, then END."""
        n = enc.final_h.shape[0]
        if len(meanings) != n:
            raise AgentError(f"got {len(meanings)} meanings for {n} encodings")
        ints, lengths = self.space.rows(meanings)
        if self.space.kind == "attr_val":
            logits = [head(enc.final_h) for head in self.heads]
            symbols, alive = ints, np.ones(ints.shape, dtype=bool)
        else:
            t_tot = int(lengths.max()) + 1
            tokens = np.pad(ints[:, : t_tot - 1], ((0, 0), (0, 1)))
            targets = np.where(np.arange(t_tot) < lengths[:, None], tokens, 2 * self.space.k)
            symbols, alive, logits = self._dyck_decode(
                (enc.final_h, enc.final_c), t_tot, lambda t, z: targets[:, t]
            )
        return de.categorical(logits, symbols, alive)[0]

    def _dyck_decode(self, state, steps, next_symbol):
        return _unroll(
            self.dec_cell, self.dec_emb, self.dec_out,
            state, steps, 2 * self.space.k, next_symbol,
        )

    def greedy_decode(self, enc):
        """Most-likely meaning per item under the reconstruction heads.

        Rows that read one message share its final state, so each distinct
        final node decodes once. Dyck words decode token by token until END
        (or ``l_max`` tokens); a row that has produced END is frozen, so the
        decoder LSTM runs only on the rows still decoding."""
        n = enc.final_h.shape[0]
        node = enc.nodes[-1] if enc.nodes else np.arange(n)
        first = np.unique(node, return_index=True)[1]
        h = Tensor._wrap(enc.final_h.data[first])
        if self.space.kind == "attr_val":
            picks = np.stack([head(h).data.argmax(axis=1) for head in self.heads], axis=1)
            words = [tuple(p) for p in picks.tolist()]
        elif self.space.l_max == 0:
            return [()] * n
        else:
            c = Tensor._wrap(enc.final_c.data[first])
            symbols, alive, _ = self._dyck_decode(
                (h, c), self.space.l_max, lambda t, z: z.argmax(axis=1)
            )
            # a word is its symbols up to, not including, END
            sizes = (alive & (symbols != 2 * self.space.k)).sum(axis=1)
            words = [tuple(w[:m]) for w, m in zip(symbols.tolist(), sizes.tolist())]
        return [words[i] for i in node.tolist()]

    def _prior_logits(self, read_prev):
        if not self.has_prior:
            raise MissingPriorError("this receiver was built without a prior head")
        return self.prior_out(read_prev)

    def prior_step(self, read_prev):
        """Log P(next symbol | previous read), [B, vocab]."""
        return de.log_softmax(self._prior_logits(read_prev))

    def message_log_prior(self, messages, reads):
        """log P(message) = sum of per-position priors, [B] on the tape.

        ``reads`` comes from ``encode`` on the same messages; position t is
        scored against ``reads[t]``. A message truncated at max length has no
        EOS and simply contributes no EOS term.
        """
        batch = as_message_batch(messages, self.max_len, self.vocab)
        n, t_max = batch.symbols.shape
        if len(reads) < t_max:
            raise AgentError(f"need {t_max} reads, got {len(reads)}")
        logits = [self._prior_logits(reads[t]) for t in range(t_max)]
        alive = np.arange(t_max) < batch.lengths[:, None]
        return de.categorical(logits, batch.symbols, alive)[0]
