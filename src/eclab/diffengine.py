"""Reverse-mode automatic differentiation over dense numpy arrays.

Ops evaluate eagerly and, when a ``Tape`` is active, append a record
``(outs, inputs, backward_fn, op)`` to it. Creation order on the tape is a
valid topological order, so ``backward`` walks the records in reverse and
accumulates cotangents keyed by tensor identity. Once a record has run,
``backward`` releases its output cotangents and the record itself, with the
arrays its backward kept, so a tape runs backward once. With no tape active
the ops are plain numpy calls, which keeps evaluation-only code (greedy
decoding, metrics) fast.

Every record has one shape: ``outs`` is a tuple of tensors, one for most ops
and several for a fused op. ``backward_fn`` takes one cotangent per output,
``None`` for an output the loss does not reach, runs as soon as any output
has a cotangent, and returns one cotangent (or ``None``) per input. An
input slot may hold ``None``, as ``stack_step``'s slot of a directive that
did not act does; its cotangent is ``None``. ``op`` names the op that made
the record (``take_rows`` records ``gather_rows``).
The fused ops ``lstm_cell`` (one LSTM step, with its row freeze and regroup)
and ``categorical`` (the summed log-likelihood and entropy of T draws, with
its node-to-row gather) are single records with a hand-written backward.

``lstm_cell``'s gates and ``adam_step`` run their elementwise chains over
leading-axis blocks of about ``_BLOCK_BYTES`` that stay in cache, making the
whole-array calls in order, so no bit depends on the block size.

Shape discipline is explicit: the binary ops (``add``, ``sub``, ``mul``,
``maximum``, ``minimum``, all through one helper) accept equal shapes, a 0-d
tensor on either side, or a python number as ``b`` -- nothing else, checked
before anything is computed. A 0-d operand's cotangent is the sum over the
output; a python number gets none. ``matmul`` takes 2-d @ 2-d, 1-d @ 2-d or
2-d @ 1-d. The row-wise helpers (``add_bias``, ``scale_rows``, ``take_last``)
cover the patterns that would otherwise need implicit broadcasting;
``gather_rows`` gathers the same rows of several tensors in one record, and
``take_rows`` (an embedding lookup) is its one-table case.

``maximum``/``minimum`` use a subgradient: the selected operand receives the
whole gradient and ties go to the first operand. ``kink_margin(f, x)``
reports the smallest margin ``|a - b|`` any of them (or a fused op with its
own max/min sites, through ``_note_kink``) saw while ``f(x)`` ran, including
under tapes ``f`` opens, so gradient checks can reject evaluation points that
sit within a finite-difference step of a kink. Outside ``kink_margin`` no
margin is computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

PRUNE_EPS = 1e-9  # re-exported for stack code; kept here with the numerics


class DiffError(Exception):
    """Base class for engine errors."""


class ShapeError(DiffError):
    """Operands have incompatible shapes or dtypes for the requested op."""


class NonFiniteError(DiffError):
    """A NaN or Inf appeared where a finite value was required."""


_TAPES: list["Tape"] = []


class Tape:
    """Context manager that records ops for one backward pass.

    Tapes nest: ops record on the innermost active one.
    """

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        if popped is not self:
            raise DiffError("tapes exited out of order")
        return False

    def __len__(self):
        return len(self._nodes)


class Tensor:
    """Immutable dense array. The wrapped numpy buffer is marked read-only."""

    __slots__ = ("data",)

    @classmethod
    def _wrap(cls, arr):
        # Takes ownership of arr without copying.
        t = cls.__new__(cls)
        if arr.flags.writeable:
            arr.setflags(write=False)
        t.data = arr
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor({self.data!r})"


def tensor(data, dtype=np.float32):
    return Tensor._wrap(np.array(data, dtype=dtype))


def zeros(shape, dtype=np.float32):
    return Tensor._wrap(np.zeros(shape, dtype=dtype))


# one [margin] cell per open ``kink_margin`` call, innermost last
_KINK_MARGINS: list[list[float]] = []


def _note_kink(a, b):
    # Called with the two (possibly broadcast) operand arrays of a max/min;
    # costs nothing unless a ``kink_margin`` call is open.
    if not _KINK_MARGINS:
        return
    diff = np.abs(a - b)
    m = float(diff.min()) if diff.size else float("inf")
    for cell in _KINK_MARGINS:
        if m < cell[0]:
            cell[0] = m


def _finish_many(arrs, op, inputs, bw):
    # wraps the outputs and records them, as one record, on the active tape
    outs = tuple(Tensor._wrap(arr) for arr in arrs)
    if _TAPES:
        _TAPES[-1]._nodes.append((outs, inputs, bw, op))
    return outs


def _finish(arr, op, inputs, bw):
    return _finish_many((arr,), op, inputs, bw)[0]


def _binary(op, a, b, fwd):
    """One record for an elementwise binary op (shapes as in the module
    docstring). ``fwd(a_data, b_data)`` returns the output and the maps from
    its cotangent to each operand's; a 0-d operand's is summed here."""
    if isinstance(b, (int, float)):
        out, da, _ = fwd(a.data, b)
        return _finish(out, op, (a,), lambda g: (da(g),))
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.data.dtype} vs {b.data.dtype}")
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    out, da, db = fwd(a.data, b.data)
    if a.shape == b.shape:
        bw = lambda g: (da(g), db(g))
    elif a.ndim == 0:
        bw = lambda g: (np.asarray(da(g).sum()), db(g))
    else:
        bw = lambda g: (da(g), np.asarray(db(g).sum()))
    return _finish(out, op, (a, b), bw)


def _same(g):
    return g


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a, b):
    return _binary("add", a, b, lambda ad, bd: (ad + bd, _same, _same))


def sub(a, b):
    return _binary("sub", a, b, lambda ad, bd: (ad - bd, _same, np.negative))


def mul(a, b):
    return _binary(
        "mul", a, b, lambda ad, bd: (ad * bd, lambda g: g * bd, lambda g: g * ad)
    )


def _select(pick, first):
    # forward of maximum/minimum: the whole cotangent goes to the operand
    # ``pick`` chose, and ``first`` is >= or <=, so ties go to ``a``
    def fwd(ad, bd):
        _note_kink(ad, bd)
        sel = first(ad, bd)
        return pick(ad, bd), lambda g: g * sel, lambda g: g * ~sel

    return fwd


def maximum(a, b):
    """Elementwise max; gradient flows to the larger operand (ties: ``a``)."""
    return _binary("maximum", a, b, _select(np.maximum, np.greater_equal))


def minimum(a, b):
    """Elementwise min; gradient flows to the smaller operand (ties: ``a``)."""
    return _binary("minimum", a, b, _select(np.minimum, np.less_equal))


# ---------------------------------------------------------------------------
# elementwise unary ops


def sigmoid(x):
    out = 1.0 / (1.0 + np.exp(-x.data))
    return _finish(out, "sigmoid", (x,), lambda g: (g * (out * (1.0 - out)),))


def tanh(x):
    out = np.tanh(x.data)
    return _finish(out, "tanh", (x,), lambda g: (g * (1.0 - out * out),))


def exp(x):
    out = np.exp(x.data)
    return _finish(out, "exp", (x,), lambda g: (g * out,))


def log(x):
    xd = x.data
    out = np.log(xd)
    return _finish(out, "log", (x,), lambda g: (g / xd,))


# ---------------------------------------------------------------------------
# linear algebra / structure


_MATMUL_BW = {
    (2, 2): lambda ad, bd, g: (g @ bd.T, ad.T @ g),
    (1, 2): lambda ad, bd, g: (g @ bd.T, np.outer(ad, g)),
    (2, 1): lambda ad, bd, g: (np.outer(g, bd), g @ ad),
}


def matmul(a, b):
    ad, bd = a.data, b.data
    if ad.dtype != bd.dtype:
        raise ShapeError(f"matmul: dtype mismatch {ad.dtype} vs {bd.dtype}")
    bw = _MATMUL_BW.get((a.ndim, b.ndim))
    if bw is None:
        raise ShapeError(f"matmul: unsupported ranks {a.ndim} and {b.ndim}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
    return _finish(ad @ bd, "matmul", (a, b), lambda g: bw(ad, bd, g))


def add_bias(m, v):
    """Add vector ``v`` to every row of matrix ``m``."""
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_bias: incompatible shapes {m.shape} and {v.shape}")
    out = m.data + v.data
    return _finish(out, "add_bias", (m, v), lambda g: (g, g.sum(axis=0)))


def scale_rows(m, s):
    """Scale row ``i`` of matrix ``m`` by scalar ``s[i]``."""
    if m.ndim != 2 or s.ndim != 1 or m.shape[0] != s.shape[0]:
        raise ShapeError(f"scale_rows: incompatible shapes {m.shape} and {s.shape}")
    md, sd = m.data, s.data
    out = md * sd[:, None]
    return _finish(
        out,
        "scale_rows",
        (m, s),
        lambda g: (g * sd[:, None], (g * md).sum(axis=1)),
    )


def _scatter_rows(g, idx, n_rows):
    # cotangent of a row gather: row ``i`` of ``g`` adds into row ``idx[i]``.
    # np.add.at over one flat index per element (a 1-d ``g`` is one column)
    # takes numpy's fast 1-d path; rows sharing an index still add up in
    # gather order
    buf = np.zeros((n_rows,) + g.shape[1:], dtype=g.dtype)
    n_col = math.prod(g.shape[1:])
    flat = idx[:, None] * n_col + np.arange(n_col)
    np.add.at(buf.reshape(-1), flat.ravel(), g.ravel())
    return buf


def is_identity(idx, n_rows):
    """Whether gathering ``n_rows`` rows by ``idx`` is a no-op: ``idx`` is ``arange(n_rows)``."""
    return len(idx) == n_rows and np.array_equal(idx, np.arange(n_rows))


def take_rows(table, idx):
    """Embedding lookup ``table[idx[i]]`` (int ``idx``): ``gather_rows`` of one 2-d table."""
    idx = np.asarray(idx)
    if table.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"take_rows: need 2-d table and 1-d idx, got {table.shape}")
    return gather_rows((table,), idx)[0]


def gather_rows(tensors, idx):
    """Gather rows ``t[idx]`` of several 1-d or 2-d tensors that share their
    leading axis, as one record with one output per tensor. Backward
    scatter-adds each output's cotangent into the rows it came from, so rows
    gathered more than once add up."""
    tensors = tuple(tensors)
    idx = np.asarray(idx)
    if (
        idx.ndim != 1
        or len({t.shape[:1] for t in tensors}) != 1
        or any(t.ndim not in (1, 2) for t in tensors)
    ):
        raise ShapeError(
            f"gather_rows: index {idx.shape} for shapes {[t.shape for t in tensors]}"
        )
    n_rows = tensors[0].shape[0]
    rows = np.arange(n_rows)[idx]  # also checks the range

    def bw(*gs):
        return tuple(None if g is None else _scatter_rows(g, rows, n_rows) for g in gs)

    return _finish_many(tuple(t.data[rows] for t in tensors), "gather_rows", tensors, bw)


def take_last(x, idx):
    """Pick one entry along the last axis: ``x[i, idx[i]]`` or ``x[idx]``."""
    if x.ndim == 2:
        idx = np.asarray(idx)
        if idx.ndim != 1 or idx.shape[0] != x.shape[0]:
            raise ShapeError(f"take_last: index shape {idx.shape} for {x.shape}")
        sel = (np.arange(x.shape[0]), idx)
    elif x.ndim == 1:
        sel = (int(idx),)
    else:
        raise ShapeError(f"take_last: unsupported rank {x.ndim}")
    out = np.asarray(x.data[sel])

    def bw(g):
        buf = np.zeros(x.shape, dtype=np.asarray(g).dtype)
        buf[sel] = g
        return (buf,)

    return _finish(out, "take_last", (x,), bw)


def concat(parts):
    """Concatenate tensors along the last axis."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat: no inputs")
    nd = parts[0].ndim
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.ndim != nd or p.shape[:-1] != lead:
            raise ShapeError(
                f"concat: incompatible shapes {[p.shape for p in parts]}"
            )
    out = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bw(g):
        return tuple(
            g[..., offsets[i] : offsets[i + 1]] for i in range(len(parts))
        )

    return _finish(out, "concat", parts, bw)


def slice_last(x, lo, hi):
    """Slice ``x[..., lo:hi]`` along the last axis."""
    if not (0 <= lo <= hi <= x.shape[-1]):
        raise ShapeError(f"slice_last: bad range [{lo}:{hi}] for {x.shape}")
    out = x.data[..., lo:hi]

    def bw(g):
        buf = np.zeros(x.shape, dtype=g.dtype)
        buf[..., lo:hi] = g
        return (buf,)

    return _finish(out, "slice_last", (x,), bw)


# ---------------------------------------------------------------------------
# fused ops


_BLOCK_BYTES = 1 << 19  # elementwise chains run over blocks of about this size


def _blocks(a):
    # indices of ``a``'s leading-axis blocks of about _BLOCK_BYTES; ``...`` when it fits in one
    if a.nbytes <= _BLOCK_BYTES or a.ndim == 0:
        return (...,)
    step = max(1, _BLOCK_BYTES * len(a) // a.nbytes)
    return [slice(k, k + step) for k in range(0, len(a), step)]


def _sigmoid_inplace(v):
    # same arithmetic as ``sigmoid``: 1 / (1 + exp(-v))
    np.negative(v, out=v)
    np.exp(v, out=v)
    v += 1.0
    np.reciprocal(v, out=v)


def _sigmoid_slope(y, out):
    # y * (1 - y), sigmoid's derivative at its output y, into ``out``
    return np.multiply(y, np.subtract(1.0, y, out=out), out=out)


def _tanh_slope(y, out):
    # 1 - y * y, tanh's derivative at its output y, into ``out`` (which may be y)
    return np.subtract(1.0, np.multiply(y, y, out=out), out=out)


def _with_rows(base, shape, rows, vals, copy=True):
    # ``base`` (a copy unless ``copy`` is False; zeros when None) with ``rows`` replaced by ``vals``
    out = np.zeros(shape, vals.dtype) if base is None else np.array(base, vals.dtype, copy=copy)
    out[rows] = vals
    return out


def lstm_cell(x, h, c, W, b, alive=None, parent=None):
    """One packed-gate LSTM step (gate order i, f, g, o) as a single record.

    ``x`` is [B, n_in], ``h`` and ``c`` are [B, H], ``W`` is [n_in + H, 4H]
    and ``b`` is [4H]. With ``parent``, a [B] int index, ``h`` and ``c`` may
    have any number of rows and the step runs on ``h[parent]``, ``c[parent]``,
    a regroup inside the record (backward scatter-adds back into those rows).
    Returns ``(h2, c2)``::

        z = [x, h] @ W + b
        i, f, o = sigmoid(z_i), sigmoid(z_f), sigmoid(z_o);  g = tanh(z_g)
        c2 = f * c + i * g;  h2 = o * tanh(c2)

    ``alive`` is an optional [B] bool mask: rows where it is False are frozen,
    returning ``h`` and ``c`` and passing the cotangents of ``h2``/``c2``
    straight back to them; only live rows go through the gates. The record
    keeps only the live rows' gate activations: backward rebuilds their
    ``[x, h]``, ``c`` and ``tanh(c2)`` from its inputs and outputs with the
    forward's numpy calls, so the gradients are those of a record that kept
    them.

    One GEMM runs over all live rows (two in backward), then elementwise
    work over row blocks of the gates (``_blocks``) into preallocated
    outputs, bit for bit the whole-array calls; the sigmoid takes whole rows
    (~3x faster than column slices), with ``tanh(z_g)`` set aside and back.
    """
    n_rows = len(h.data)
    if parent is not None and is_identity(parent, n_rows):
        parent = None
    n = n_rows if parent is None else len(parent)
    if x.ndim != 2 or h.ndim != 2 or h.shape != c.shape or x.shape[0] != n:
        raise ShapeError(
            f"lstm_cell: incompatible shapes x {x.shape}, h {h.shape}, c {c.shape} for {n} rows"
        )
    n_in, nH = x.shape[1], h.shape[1]
    if W.shape != (n_in + nH, 4 * nH) or b.shape != (4 * nH,):
        raise ShapeError(
            f"lstm_cell: W {W.shape} and b {b.shape} do not fit input {n_in}, hidden {nH}"
        )
    dtypes = {t.data.dtype for t in (x, h, c, W, b)}
    if len(dtypes) != 1:
        raise ShapeError(f"lstm_cell: dtype mismatch {sorted(map(str, dtypes))}")
    rows = None  # indices of the live rows when some rows are frozen
    if alive is not None:
        alive = np.asarray(alive, dtype=bool)
        if alive.shape != (n,):
            raise ShapeError(f"lstm_cell: alive mask {alive.shape} for batch {n}")
        if not alive.all():
            rows = np.flatnonzero(alive)
    # the rows of h and c that the live rows read
    src = rows if parent is None else parent if rows is None else parent[rows]

    def take(a, idx, blk=...):
        # rows ``blk`` of the live rows' view of ``a`` (a gather, or a view when ``idx`` is None)
        return a[blk] if idx is None else a[idx[blk]]

    def joined():
        return np.concatenate((take(x.data, rows), take(h.data, src)), axis=1)

    def gates(a):
        return (a[:, k * nH : (k + 1) * nH] for k in range(4))

    act = joined() @ W.data
    blocks = _blocks(act)
    c2, h2 = (np.empty((len(act), nH), act.dtype) for _ in range(2))
    for s in blocks:
        a = act[s]
        a += b.data
        i, f, g, o = gates(a)
        cs, hs = c2[s], h2[s]
        np.tanh(g, out=hs)
        _sigmoid_inplace(a)
        g[...] = hs
        np.multiply(f, take(c.data, src, s), out=cs)
        cs += np.multiply(i, g, out=hs)
        np.multiply(o, np.tanh(cs, out=hs), out=hs)
    if rows is not None:
        # frozen rows keep their regrouped h and c: one gather (a copy without a regroup)
        h2 = _with_rows(take(h.data, parent), (n, nH), rows, h2, copy=parent is None)
        c2 = _with_rows(take(c.data, parent), (n, nH), rows, c2, copy=parent is None)

    def bw(gh, gc):
        dz = np.empty_like(act)
        dc = np.empty((len(act), nH), act.dtype)
        for s in blocks:
            i, f, g, o = gates(act[s])
            di, df, dg, do = gates(dz[s])
            t1, t2, t3 = np.empty((3,) + do.shape, act.dtype)
            if gh is None:
                dc2 = take(gc, rows, s)
                do[...] = 0.0
            else:
                ghs, tc = take(gh, rows, s), np.tanh(take(c2, rows, s), out=t1)
                np.multiply(ghs, tc, out=t2)
                dc2 = np.multiply(ghs, o, out=t3)
                dc2 *= _tanh_slope(tc, t1)
                if gc is not None:
                    dc2 += take(gc, rows, s)
                np.multiply(t2, _sigmoid_slope(o, t1), out=do)
            np.multiply(np.multiply(dc2, g, out=t2), _sigmoid_slope(i, t1), out=di)
            np.multiply(np.multiply(dc2, take(c.data, src, s), out=t2), _sigmoid_slope(f, t1), out=df)
            np.multiply(np.multiply(dc2, i, out=t2), _tanh_slope(g, t1), out=dg)
            np.multiply(dc2, f, out=dc[s])
        dxh = dz @ W.data.T
        dx, dh = dxh[:, :n_in], dxh[:, n_in:]
        if rows is not None:
            # frozen rows pass their cotangents straight back to h and c
            dx = _with_rows(None, x.shape, rows, dx)
            dh = _with_rows(gh, (n, nH), rows, dh)
            dc = _with_rows(gc, (n, nH), rows, dc)
        if parent is not None:
            dh, dc = (_scatter_rows(d, parent, n_rows) for d in (dh, dc))
        return dx, dh, dc, joined().T @ dz, dz.sum(axis=0)

    return _finish_many((h2, c2), "lstm_cell", (x, h, c, W, b), bw)


def categorical(logits, symbols, alive, nodes=None):
    """Log-probability and entropy of T categorical draws, as one record.

    ``logits`` is T tensors [N_t, V] and ``nodes`` T [B] int maps: row b of
    step t reads row ``nodes[t][b]`` of ``logits[t]``, a gather inside the
    record (none for an identity map; without ``nodes`` the logits are the
    rows). ``symbols`` is the [B, T] int draws and ``alive`` the [B, T] bool
    mask of the steps that count. Returns [B] tensors ``logp`` and ``entropy``
    summed over live steps in step order, and the unmasked per-step terms as
    [B, T] arrays. The arithmetic is that of gather_rows, log_softmax,
    take_last, softmax, mul, sum_last and a 0/1 mask, bit for bit."""
    logits, symbols, alive = tuple(logits), np.asarray(symbols), np.asarray(alive, bool)
    maps = [None] * len(logits) if nodes is None else [np.asarray(m) for m in nodes]
    n = len(symbols) if symbols.ndim == 2 else -1
    if not logits or not symbols.shape == alive.shape == (n, len(logits)) == (n, len(maps)) or any(
        z.ndim != 2 or z.shape[1:] != logits[0].shape[1:] or z.dtype != logits[0].dtype
        or (z.shape[0] != n if m is None else m.shape != (n,)) for z, m in zip(logits, maps)
    ):
        raise ShapeError(
            f"categorical: logits {[z.shape for z in logits]}, symbols {symbols.shape},"
            f" alive {alive.shape} and maps {[np.shape(m) for m in maps]} do not fit"
        )
    # the rows each step reads (the index checks their range), None for the identity
    rows = [None if m is None or is_identity(m, z.shape[0]) else np.arange(z.shape[0])[m]
            for z, m in zip(logits, maps)]
    sym = symbols.T[..., None]  # [T, B, 1]
    masks = alive.T.astype(logits[0].dtype)  # a 1.0 leaves a term's bits alone
    stacked = np.stack([z.data if r is None else z.data[r] for z, r in zip(logits, rows)])
    logp, e, s = log_softmax_array(stacked)
    p = e / s
    picks = np.take_along_axis(logp, sym, axis=-1)[..., 0]
    ents = (p * logp).sum(axis=-1) * -1.0

    def bw(g_logp, g_ent):
        dlogp = dz = None
        if g_ent is not None:
            g = np.expand_dims(g_ent * masks * -1.0, -1)
            dp = g * logp
            dz = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            dlogp = g * p
        if g_logp is not None:
            buf = np.zeros(logp.shape, dtype=g_logp.dtype)
            np.put_along_axis(buf, sym, np.expand_dims(g_logp * masks, -1), axis=-1)
            dlogp = buf if dlogp is None else dlogp + buf
        dls = dlogp - np.exp(logp) * dlogp.sum(axis=-1, keepdims=True)
        d = dls if dz is None else dz + dls
        return tuple(
            g if r is None else _scatter_rows(g, r, z.shape[0]) for g, r, z in zip(d, rows, logits)
        )

    # each sum runs in step order from step 0, as the composite adds (a sum
    # over the step axis would turn a dead row's -0.0 into +0.0)
    sums = [functools.reduce(np.add, terms * masks) for terms in (picks, ents)]
    return (*_finish_many(sums, "categorical", logits, bw), picks.T, ents.T)


# ---------------------------------------------------------------------------
# reductions and normalizations


def reduce_sum(x):
    out = np.asarray(x.data.sum())
    shape = x.shape
    return _finish(out, "reduce_sum", (x,), lambda g: (np.broadcast_to(g, shape),))


def reduce_mean(x):
    n = x.size
    out = np.asarray(x.data.mean())
    shape = x.shape
    return _finish(
        out, "reduce_mean", (x,), lambda g: (np.broadcast_to(g / n, shape),)
    )


def sum_last(x):
    """Sum over the last axis."""
    if x.ndim == 0:
        raise ShapeError("sum_last: 0-d input")
    out = x.data.sum(axis=-1)
    shape = x.shape

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g, -1), shape),)

    return _finish(out, "sum_last", (x,), bw)


def log_softmax_array(xd):
    """Log-softmax of a plain array over its last axis, off the tape, with the
    exp of the max-subtracted logits and its sums (``softmax`` is e / s)."""
    z = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    return z - np.log(s), e, s


def softmax(x):
    """Softmax over the last axis (max-subtracted for stability)."""
    _, e, s = log_softmax_array(x.data)
    out = e / s

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _finish(out, "softmax", (x,), bw)


def log_softmax(x):
    """Log-softmax over the last axis (max-subtracted for stability)."""
    out = log_softmax_array(x.data)[0]
    sm = np.exp(out)

    def bw(g):
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return _finish(out, "log_softmax", (x,), bw)


# ---------------------------------------------------------------------------
# backward pass


class Gradients:
    """Gradient lookup keyed by tensor identity; absent tensors read as zero.

    Only leaves have entries: tensors that no record on the tape produced
    (parameters, inputs, constants; only those in ``wrt`` when ``backward``
    was given one). An intermediate tensor and the loss
    itself read zero once ``backward`` has returned. Each entry keeps a
    reference to its tensor, so no entry outlives its tensor's ``id``.
    """

    __slots__ = ("_table",)

    def __init__(self, table):
        self._table = table  # id(t) -> (t, gradient)

    def __getitem__(self, t):
        entry = self._table.get(id(t))
        if entry is None:
            return np.zeros(t.shape, dtype=t.dtype)
        out = np.asarray(entry[1], dtype=t.dtype)
        if out.shape != t.shape:  # pragma: no cover - internal invariant
            raise ShapeError(f"gradient shape {out.shape} for tensor {t.shape}")
        return out

    def __contains__(self, t):
        return id(t) in self._table


def backward(tape, loss, wrt=None):
    """Accumulate d(loss)/d(leaf) for every leaf tensor recorded on ``tape``.

    ``loss`` must be a 0-d tensor produced while ``tape`` was active. A
    record's cotangents are released as soon as its backward has consumed
    them, so the table only ever holds what backward still needs, and the
    result has entries for leaves alone: intermediate tensors and the loss
    itself read zero. Tensors with no path to the loss have no entry either.
    ``wrt``, if given, is the leaves whose gradients are wanted (say, the
    parameters): a cotangent reaching any other leaf (a constant such as a
    zero initial state, an embedded input or an advantage) is dropped on
    arrival, so that leaf reads zero and has no entry.

    Each record is released (its entry on the tape set to ``None``) once it
    has run, so the arrays it saved for backward are freed as the pass goes
    rather than when the tape is dropped; ``len(tape)`` still counts every
    record. A tape therefore runs backward once: a second call raises
    ``DiffError``.

    A leaf's cotangents sum in arrival order, into a new array and then in
    place into it; an array an op's backward returned is never written to.
    """
    if loss.shape != ():
        raise ShapeError(f"backward: loss must be a scalar, got {loss.shape}")
    nodes = tape._nodes
    if None in nodes:
        raise DiffError("backward: this tape's records were released by an earlier backward")
    # built while every record still holds its outputs, so no id in it can
    # belong to a tensor made after a record is released
    produced = {id(o) for outs, *_ in nodes for o in outs}
    if id(loss) not in produced:
        raise DiffError("backward: loss was not produced on this tape")
    table = {id(loss): (loss, np.ones((), dtype=loss.dtype))}
    keep = None if wrt is None else {id(t) for t in wrt}
    owned = set()  # keys whose table entry is a sum allocated here
    for k in range(len(nodes) - 1, -1, -1):
        outs, inputs, bw, _ = nodes[k]
        nodes[k] = None
        gs = [table.pop(id(o), (None, None))[1] for o in outs]
        if all(g is None for g in gs):
            continue
        for t, gi in zip(inputs, bw(*gs)):
            if gi is None:
                continue
            key = id(t)
            if keep is not None and key not in keep and key not in produced:
                continue
            acc = table.get(key)
            if acc is None:
                table[key] = (t, gi)  # an op's array: never written to
            elif key in owned and np.result_type(acc[1], gi) == acc[1].dtype:
                np.add(acc[1], gi, out=acc[1])  # a sum allocated here: add in place
            else:
                table[key] = (t, np.asarray(acc[1] + gi))
                owned.add(key)
    return Gradients(table)


def kink_margin(f, x):
    """Smallest |a - b| seen by any max/min while evaluating ``f(x)`` (inf if
    none ran), whatever tapes ``f`` opens itself."""
    cell = [float("inf")]
    _KINK_MARGINS.append(cell)
    try:
        f(x)
    finally:
        _KINK_MARGINS.pop()
    return cell[0]


def grad_check(f, x, h=1e-5):
    """Compare reverse-mode and central-difference gradients of ``f`` at ``x``.

    ``f`` maps one tensor to a scalar tensor and must be built from ops in
    this module. Returns the max over coordinates of
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``. The caller
    is responsible for choosing points away from max/min kinks (see
    ``kink_margin``); float64 inputs are strongly recommended.
    """
    with Tape() as tape:
        y = f(x)
    if y.shape != ():
        raise ShapeError(f"grad_check: f must return a scalar, got {y.shape}")
    analytic = backward(tape, y)[x].ravel()
    if not np.all(np.isfinite(analytic)):
        raise NonFiniteError("grad_check: non-finite analytic gradient")
    base = x.data
    worst = 0.0
    for i in range(base.size):
        hi = base.copy().ravel()
        hi[i] += h
        lo = base.copy().ravel()
        lo[i] -= h
        fp = f(Tensor._wrap(hi.reshape(base.shape))).item()
        fm = f(Tensor._wrap(lo.reshape(base.shape))).item()
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteError(f"grad_check: non-finite f near coordinate {i}")
        num = (fp - fm) / (2.0 * h)
        a = float(analytic[i])
        rel = abs(a - num) / max(1e-8, abs(a) + abs(num))
        if rel > worst:
            worst = rel
    return worst


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adam moments plus hyperparameters; L2 is added to the gradient."""

    lr: float = 1e-4
    l2: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state, params, grads):
    """One Adam update. Returns a dict of new Tensors; inputs are not mutated.

    ``params`` maps name -> Tensor and ``grads`` maps name -> ndarray of the
    same shape. ``state`` is updated in place (step count, and the moment
    arrays are overwritten); no gradient array is, as two may share one.
    Each update runs over leading-axis blocks (``_blocks``) with one block
    buffer, bit for bit the whole-array calls: the block of the new array
    holds ``g + l2 * p``, then the step, then ``p - step``.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    out = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=p.dtype)
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} for {name} {p.shape}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            v = state.v[name] = np.zeros_like(p.data)
        new = np.empty_like(p.data)
        for s in _blocks(p.data):
            gs, ps, ms, vs, ns = g[s], p.data[s], m[s], v[s], new[s]
            buf = np.empty_like(ps)
            if state.l2:  # g + l2 * p
                gs = np.add(gs, np.multiply(state.l2, ps, out=ns), out=ns)
            # in place: v = b2 * v + (1 - b2) * (g * g), m = b1 * m + (1 - b1) * g
            # and new = p - lr * (m / c1) / (sqrt(v / c2) + eps)
            vs *= b2
            vs += np.multiply(np.multiply(gs, gs, out=buf), 1.0 - b2, out=buf)
            ms *= b1
            ms += np.multiply(gs, 1.0 - b1, out=buf)
            np.divide(ms, c1, out=ns)
            ns *= state.lr
            ns /= np.add(np.sqrt(np.divide(vs, c2, out=buf), out=buf), state.eps, out=buf)
            np.subtract(ps, ns, out=ns)
        out[name] = Tensor._wrap(new)
    return out
