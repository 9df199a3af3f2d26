"""Sender and receiver networks.

The sender encodes a meaning into an LSTM state and emits a discrete message
symbol-by-symbol (symbol 0 is EOS; emission stops at EOS or at ``max_len``).
The receiver consumes the message with an LSTM controller coupled to a
differentiable stack: at each step the controller sees the symbol embedding
concatenated with the previous stack read, and produces a push value plus
pop/push/read strengths. Reconstruction conditions on the final controller
state. An optional prior head predicts the next symbol from the previous
read, giving a learned message prior.

Messages have one representation, the padded ``MessageBatch``, and every
entry point checks the message rules on it through ``as_message_batch``.

Everything here is batched: meanings/messages come in lists, tensors carry a
leading batch axis, and per-item termination freezes finished rows (h, c and
the stack stop changing once an item's EOS has been processed, which matches
running each item on its own). The LSTM cells and ``stack_step`` take the
bool ``alive`` mask directly: a frozen row keeps its h and c, and pops and
pushes nothing, inside the fused op. It still reads its unchanged stack; its
read reaches the loss only through masked prior positions and frozen LSTM
inputs.

An LSTM's state after step t depends only on its root and the symbol prefix
up to t, so all four LSTMs run each step on *nodes*, one per distinct (root,
prefix), keyed by ``_prefix_nodes``: the sender's Dyck encoder and the
receiver from one root, and, in the one loop ``_unroll``, the sender's
emission and scoring from the encoder's nodes and the Dyck decoder from the
receiver's last nodes. Ended rows stay as frozen nodes (``alive`` False), so
pruning and kink margins see the program of a loop over rows. ``lstm_cell``
regroups h and c from the parent nodes in its record; ``_to_rows`` gathers
the stack and its read to the parents. Where the roots are distinct and in
row order, as under the random strategy (its draws are per row, so its nodes
stay the rows), every map is the identity and no gather runs.

The rule: state lives on nodes. The LSTM states, the stack and its reads
stay there, and every head (emission, prior, attribute, Dyck decoder)
projects nodes. Rows appear on the tape only inside ``categorical``, which
reads each step's [N, V] node logits through that step's [B] node map, and
in the opt-in receiver trace.

Each of log S with entropy H, log R and the prior's log P is one
``diffengine.categorical`` record over per-step logits. Meanings enter as
tuples and are turned into int rows by ``MeaningSpace.rows``. Both agents
are built from a ``game.GameConfig``, the one place their settings are
defaulted and checked.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import diffengine as de
from .diffengine import Tensor
from .neural_stack import StackDirectives, StackState, stack_step

EOS = 0


class AgentError(ValueError):
    """Bad message or meaning input, or a call an agent cannot serve."""


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

    def step(self, x, h, c, alive=None, parent=None):
        """One step, returning ``(h2, c2)``: row ``i`` continues from row
        ``parent[i]`` of ``h`` and ``c`` (row ``i`` without ``parent``), and rows
        where the [B] bool ``alive`` is False (their item finished) keep it."""
        return de.lstm_cell(x, h, c, self.W, self.b, alive, parent)


@dataclass
class NodeState:
    """An LSTM state on nodes, ``h`` and ``c`` [N, hidden], and each row's node
    ``node`` [B]."""

    h: Tensor
    c: Tensor
    node: np.ndarray


def _unroll(cell, emb, out, state, steps, stop, next_symbol):
    """The decoding loop of the sender and of the Dyck decoder, on nodes.

    From the root ``NodeState``, step t feeds each node its previous symbol
    (zeros at t = 0) and projects its ``h`` with ``out``; ``next_symbol(t,
    [B, V] array) -> [B] ints`` picks from the rows' logits, off the tape. A
    row that picked ``stop`` is frozen and repeats ``stop``; the loop ends
    after ``steps`` steps or once every row has stopped. Returns symbols
    [B, T], the bool [B, T] mask of rows running at each step (their ``stop``
    step included), and each step's node logits and [B] node map.
    """
    h, c, node = state.h, state.c, state.node
    alive = np.ones(len(node), dtype=bool)
    x = de.zeros((h.shape[0], emb.table.shape[1]), dtype=h.dtype)
    live = parent = None
    symbols, alives, logits, nodes = [], [], [], []
    for t in range(steps):
        if t > 0:
            node, first, parent = _prefix_nodes(node, symbols[-1], alive, emb.table.shape[0])
            x, live = emb(symbols[-1][first]), alive[first]
        h, c = cell.step(x, h, c, live, parent)
        z = out(h)
        sym = np.where(alive, next_symbol(t, z.data[node]), stop)
        symbols.append(sym)
        alives.append(alive)
        logits.append(z)
        nodes.append(node)
        alive = alive & (sym != stop)
        if not alive.any():
            break
    return np.stack(symbols, axis=1), np.stack(alives, axis=1), logits, nodes


def _prefix_nodes(node, symbols, alive, n_symbols):
    """One step of the prefix-node scheme over [B] rows. A row's new node is
    keyed by its node so far and its symbol, or the end mark ``n_symbols``
    once its sequence has ended. Returns the [B] node of each row, the first
    row of each node and each node's parent."""
    key = node * (n_symbols + 1) + np.where(alive, symbols, n_symbols)
    _, first, new = np.unique(key, return_index=True, return_inverse=True)
    return new, first, node[first]


def _to_rows(idx, *ts):
    """Gather tensors ``ts`` by the int map ``idx``: the receiver's stack and
    read to this step's parents, or its trace to rows. No record when ``idx``
    is the identity (every row its own node, or no node with a second child)."""
    return ts if de.is_identity(idx, ts[0].shape[0]) else de.gather_rows(ts, idx)


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
    """One message's symbols, the final EOS included unless the message was
    cut off at max length: a readable view of one ``MessageBatch`` row."""

    symbols: tuple

    def __len__(self):
        return len(self.symbols)


class MessageBatch:
    """Messages as the agents read them: int symbols [B, T] (EOS-padded past
    each item's length) and lengths [B] counting the EOS step."""

    def __init__(self, symbols, lengths):
        self.symbols = np.asarray(symbols, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.symbols.ndim != 2 or self.lengths.shape != (self.symbols.shape[0],):
            raise AgentError("malformed message batch")

    def __len__(self):
        return self.symbols.shape[0]

    @classmethod
    def from_sequences(cls, seqs, max_len, vocab):
        seqs = [tuple(s) for s in seqs]
        symbols = np.full((len(seqs), max(map(len, seqs), default=0)), EOS, dtype=np.int64)
        for b, s in enumerate(seqs):
            symbols[b, : len(s)] = s
        return cls(symbols, [len(s) for s in seqs]).check(max_len, vocab)

    def check(self, max_len, vocab):
        """The batch, cut to its longest message's columns, if it has a row,
        each message's length is in [1, min(max_len, T)], every symbol
        (padding too) is in [0, vocab), EOS comes only last, and only a
        message of length ``max_len`` lacks it; else ``AgentError``."""
        symbols, n = self.symbols, self.lengths
        if not len(n):
            raise AgentError("empty message batch: no messages to read")

        def refuse(bad, rule):
            if bad.any():
                b = int(np.argmax(bad))
                raise AgentError(f"message {b} {symbols[b].tolist()}[:{n[b]}] {rule}")

        t_max = symbols.shape[1]
        hi = min(max_len, t_max)
        refuse((n < 1) | (n > hi), f"has a length outside [1, {hi}]")
        refuse(((symbols < 0) | (symbols >= vocab)).any(axis=1), "has symbols outside the alphabet")
        first_eos = np.where(symbols == EOS, np.arange(t_max), t_max).min(axis=1)  # t_max if no EOS
        refuse(first_eos < n - 1, "has EOS before its final symbol")
        refuse((first_eos >= n) & (n < max_len), f"is unterminated but shorter than {max_len}")
        width = int(n.max())
        return self if width == t_max else MessageBatch(symbols[:, :width], n)


def as_message_batch(messages, max_len, vocab):
    """``messages`` (a batch, or symbol sequences or ``Message``s) as a checked
    ``MessageBatch``: the one way messages enter ``score``, ``encode`` and the prior."""
    if isinstance(messages, MessageBatch):
        return messages.check(max_len, vocab)
    seqs = [m.symbols if isinstance(m, Message) else m for m in messages]
    return MessageBatch.from_sequences(seqs, max_len, vocab)


@dataclass
class EmitResult:
    """An emitted batch. Per-item log-probabilities and entropies are rows of
    its arrays; ``messages`` (one ``Message`` per item) is built on first
    access, and training and evaluation read only ``batch`` and the arrays."""

    batch: MessageBatch
    log_probs: Tensor  # [B], on the active tape
    entropies: Tensor  # [B], sum of per-step emission entropies
    step_log_probs: np.ndarray  # [B, T], log-prob of each emitted symbol
    step_entropies: np.ndarray  # [B, T], emission entropy of each step

    @functools.cached_property
    def messages(self):
        rows, lengths = self.batch.symbols.tolist(), self.batch.lengths.tolist()
        return [Message(tuple(row[:m])) for row, m in zip(rows, lengths)]


# ---------------------------------------------------------------------------
# sender


class OneHotEncoder(ParamModule):
    """Attribute-value meanings -> initial (h, c) via a linear map, on one
    node per distinct meaning (in sorted order, as ``split`` lists them)."""

    _subs = ("lin",)

    def __init__(self, rng, space, hidden, dtype):
        self.space = space
        self.hidden = hidden
        self.dtype = dtype
        self.lin = Linear(rng, space.n_att * space.n_val, 2 * hidden, dtype)

    def __call__(self, meanings):
        values, node = np.unique(self.space.rows(meanings)[0], axis=0, return_inverse=True)
        # the one-hot rows of ``encode_meaning``, set by one scatter
        n_att, n_val = self.space.n_att, self.space.n_val
        rows = np.zeros((len(values), n_att * n_val), dtype=self.dtype)
        rows[np.arange(len(values))[:, None], np.arange(n_att) * n_val + values] = 1.0
        hc = self.lin(Tensor._wrap(rows))
        return NodeState(
            de.slice_last(hc, 0, self.hidden),
            de.slice_last(hc, self.hidden, 2 * self.hidden),
            node,
        )


class TokenSeqEncoder(ParamModule):
    """Dyck meanings -> final (h, c) of an LSTM over the bracket tokens, on its nodes."""

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
        root = de.zeros((min(len(node), 1), self.h0.shape[0]), dtype=self.dtype)
        h, c = (de.add_bias(root, v) for v in (self.h0, self.c0))
        for t in range(int(lengths.max()) if len(node) else 0):
            alive = t < lengths
            node, first, parent = _prefix_nodes(node, tokens[:, t], alive, 2 * self.space.k)
            h, c = self.cell.step(self.emb(tokens[first, t]), h, c, alive[first], parent)
        return NodeState(h, c, node)


class Sender(ParamModule):
    """Meaning -> message policy S(M | X)."""

    _subs = ("encoder", "emb", "cell", "out")

    def __init__(self, space, config, rng, dtype):
        self.space = space
        self.hidden = hidden = config.hidden
        self.embedding = embedding = config.embedding
        self.vocab = vocab = config.vocab
        self.max_len = config.max_len
        self.dtype = dtype = np.dtype(dtype)
        if space.kind == "attr_val":
            self.encoder = OneHotEncoder(rng, space, hidden, dtype)
        else:
            self.encoder = TokenSeqEncoder(rng, space, hidden, embedding, dtype)
        self.emb = Embedding(rng, vocab, embedding, dtype)
        self.cell = LstmCell(rng, embedding, hidden, dtype)
        self.out = Linear(rng, hidden, vocab, dtype)

    def encode(self, meanings):
        """Initial state, a ``NodeState``: one node per distinct meaning (per
        distinct word prefix inside the Dyck encoder)."""
        return self.encoder(meanings)

    def _unroll(self, state, pick):
        return _unroll(self.cell, self.emb, self.out, state, self.max_len, EOS, pick)

    def emit(self, state, mode="sample", rng=None):
        """Roll the policy out from ``encode``'s ``NodeState``. ``mode`` is
        "sample" (needs ``rng``) or "greedy"; emission stops at EOS or ``max_len``."""
        if mode == "sample":
            if rng is None:
                raise AgentError("sampling emission needs an rng")
            pick = lambda t, z: _sample_rows(np.exp(de.log_softmax_array(z)[0]), rng)
        elif mode == "greedy":
            pick = lambda t, z: de.log_softmax_array(z)[0].argmax(axis=1)
        else:
            raise AgentError(f"unknown emission mode {mode!r}")
        symbols, alive, logits, nodes = self._unroll(state, pick)
        return EmitResult(
            MessageBatch(symbols, alive.sum(axis=1)), *de.categorical(logits, symbols, alive, nodes)
        )

    def score(self, state, messages):
        """Log S(m | state) for given messages, [B] on the active tape."""
        batch = as_message_batch(messages, self.max_len, self.vocab)
        n = len(state.node)
        if len(batch) != n:
            raise AgentError(f"scored {len(batch)} messages against {n} states")
        symbols, alive, logits, nodes = self._unroll(state, lambda t, z: batch.symbols[:, t])
        return de.categorical(logits, symbols, alive, nodes)[0]


# ---------------------------------------------------------------------------
# receiver


@dataclass
class StepTrace:
    """Receiver internals for one message position (mainly for analysis).

    ``u``, ``d`` and ``r`` are the directives the strategy produced; the stack
    pops and pushes only on rows still running, and every row's ``read`` is
    its stack read with ``r``. A finished row's stack and, under learned and
    left, its ``r`` no longer change, so its read repeats its last one."""

    push_value: Tensor  # v_t, [B, hidden]
    read: Tensor  # r_t as returned by the stack, [B, hidden]
    u: Tensor
    d: Tensor
    r: Tensor


@dataclass
class EncodeResult:
    """Controller output after consuming a message batch, on nodes.

    ``state`` is the controller's ``NodeState`` after the last position.
    ``reads[t] = (read, node)`` is the stack read available *before* position
    t is consumed, [N, hidden] on the nodes of step t - 1, and the [B] node of
    each row there (``reads[0]`` is the zero read of the roots): exactly what
    the prior head conditions on for symbol t. ``trace`` is per row (None
    unless asked for).
    """

    state: NodeState
    reads: list
    trace: list | None = None


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

    def __init__(self, space, config, rng, dtype):
        self.space = space
        self.hidden = hidden = config.hidden
        self.embedding = embedding = config.embedding
        self.vocab = vocab = config.vocab
        self.max_len = config.max_len
        caps = (config.k_u, config.k_d, config.k_r)
        self.k_u, self.k_d, self.k_r = self.caps = tuple(float(k) for k in caps)
        self.random_resample = config.random_resample
        self.dtype = dtype = np.dtype(dtype)
        self.emb = Embedding(rng, vocab, embedding, dtype)
        self.cell = LstmCell(rng, embedding + hidden, hidden, dtype)
        self.to_value = Linear(rng, hidden, hidden, dtype)
        self.to_u = ScalarHead(rng, hidden, dtype)
        self.to_d = ScalarHead(rng, hidden, dtype)
        self.to_r = ScalarHead(rng, hidden, dtype)
        self.heads = None
        self.dec_emb = self.dec_cell = self.dec_out = None
        if space.kind == "attr_val":
            self.heads = [Linear(rng, hidden, space.n_val, dtype) for _ in range(space.n_att)]
        else:
            n_tok = 2 * space.k + 1  # brackets plus the end-of-word token
            self.dec_emb = Embedding(rng, n_tok, embedding, dtype)
            self.dec_cell = LstmCell(rng, embedding, hidden, dtype)
            self.dec_out = Linear(rng, hidden, n_tok, dtype)
        self.decoder = (self.dec_cell, self.dec_emb, self.dec_out)  # for ``_unroll``
        # created last so configurations with and without a prior draw
        # identical initial values for every shared parameter
        rewo = config.beta_mode == "rewo"
        self.prior_out = Linear(rng, hidden, vocab, dtype) if rewo else None

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
        docstring): the state and the reads stay on nodes, and only the
        opt-in trace is gathered to rows.
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
        # one root node, or one node per row under random: its draws are per
        # row, so its keys stay distinct and no gather runs
        node = np.arange(n) if random else np.zeros(n, dtype=np.int64)
        roots = n if random else 1
        h, c, read = (de.zeros((roots, self.hidden), dtype=self.dtype) for _ in range(3))
        stack = StackState.empty(self.hidden, batch=roots, dtype=self.dtype)
        reads, trace = [(read, node)], [] if want_trace else None
        for t in range(t_max):
            alive = t < batch.lengths
            node, first, parent = _prefix_nodes(node, batch.symbols[:, t], alive, self.vocab)
            live = alive[first]
            read, s, *vs = _to_rows(parent, read, stack.strengths, *stack.values)
            stack = StackState(tuple(vs), s, self.hidden)
            x = self.emb(batch.symbols[first, t])
            h, c = self.cell.step(de.concat([x, read]), h, c, live, parent)
            v = de.tanh(self.to_value(h))
            if strategy is Strategy.LEARNED:
                heads = zip((self.to_u, self.to_d, self.to_r), self.caps)
                u, d, r = (de.mul(de.sigmoid(head(h)), k) for head, k in heads)
            elif strategy is Strategy.LEFT_BRANCHING:
                u = d = r = Tensor._wrap(np.ones(len(first), dtype=self.dtype))
            elif frozen_draws is not None:
                u, d, r = frozen_draws
            else:
                u, d, r = self._random_directives(rng, n)
            # finished rows pop and push nothing and read their unchanged stack
            stack, read = stack_step(stack, StackDirectives(v=v, u=u, d=d, r=r), alive=live)
            reads.append((read, node))
            if want_trace:
                trace.append(StepTrace(*_to_rows(node, v, read, u, d, r)))
        return EncodeResult(NodeState(h, c, node), reads, trace)

    def reconstruct_logprob(self, enc, meanings):
        """log R(meaning | final state), [B] on the active tape: one step per
        attribute head, or the Dyck decoder teacher-forced on a word, then END."""
        n = len(enc.state.node)
        if len(meanings) != n:
            raise AgentError(f"got {len(meanings)} meanings for {n} encodings")
        ints, lengths = self.space.rows(meanings)
        if self.space.kind == "attr_val":
            logits = [head(enc.state.h) for head in self.heads]
            nodes = [enc.state.node] * len(logits)
            symbols, alive = ints, np.ones(ints.shape, dtype=bool)
        else:
            t_tot = int(lengths.max()) + 1
            tokens = np.pad(ints[:, : t_tot - 1], ((0, 0), (0, 1)))
            targets = np.where(np.arange(t_tot) < lengths[:, None], tokens, 2 * self.space.k)
            symbols, alive, logits, nodes = _unroll(
                *self.decoder, enc.state, t_tot, 2 * self.space.k, lambda t, z: targets[:, t]
            )
        return de.categorical(logits, symbols, alive, nodes)[0]

    def greedy_decode(self, enc):
        """Most-likely meaning per item under the reconstruction heads.

        Rows that read one message share its final node, so each node
        decodes once. Dyck words decode token by token until END (or
        ``l_max`` tokens); a row that has produced END is frozen, so the
        decoder LSTM runs only on the rows still decoding."""
        h, c, node = enc.state.h, enc.state.c, enc.state.node
        if self.space.kind == "attr_val":
            picks = np.stack([head(h).data.argmax(axis=1) for head in self.heads], axis=1)
            words = [tuple(p) for p in picks.tolist()]
        elif self.space.l_max == 0:
            return [()] * len(node)
        else:
            roots, end = NodeState(h, c, np.arange(h.shape[0])), 2 * self.space.k
            pick = lambda t, z: z.argmax(axis=1)
            symbols, alive, *_ = _unroll(*self.decoder, roots, self.space.l_max, end, pick)
            # a word is its symbols up to, not including, END
            sizes = (alive & (symbols != 2 * self.space.k)).sum(axis=1)
            words = [tuple(w[:m]) for w, m in zip(symbols.tolist(), sizes.tolist())]
        return [words[i] for i in node.tolist()]

    def message_log_prior(self, messages, reads):
        """log P(message) = sum of per-position priors, [B] on the tape.

        ``reads`` comes from ``encode`` on the same messages; position t is
        scored against ``reads[t]``. The head projects each node's read once,
        and ``categorical`` reads rows through each read's node map. A message
        truncated at max length has no EOS and simply contributes no EOS term.
        """
        if not self.has_prior:
            raise MissingPriorError("this receiver was built without a prior head")
        batch = as_message_batch(messages, self.max_len, self.vocab)
        n, t_max = batch.symbols.shape
        if len(reads) < t_max:
            raise AgentError(f"need {t_max} reads, got {len(reads)}")
        logits = [self.prior_out(read) for read, _ in reads[:t_max]]
        alive = np.arange(t_max) < batch.lengths[:, None]
        return de.categorical(logits, batch.symbols, alive, [node for _, node in reads[:t_max]])[0]
