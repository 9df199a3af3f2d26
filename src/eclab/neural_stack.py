"""A differentiable stack with continuous push/pop/read strengths.

Every entry pairs a value vector with a scalar strength >= 0. One step does,
in order: pop with strength ``u``, push ``(v, d)``, then read with strength
``r``. Popping consumes strength top-down; reading averages value vectors
top-down until ``r`` worth of strength has been gathered. Strengths may exceed
1, so a single step can pop several entries or read past the top one.

All three directives may be differentiable 0-d tensors (or, in batched use,
length-B tensors with value matrices [B, width]); gradients flow through the
max/min gates into whatever produced the directives. States are immutable:
each op returns a new ``StackState`` sharing untouched tensors.

A state keeps one tensor per entry value and one strength tensor for the
whole stack, [B, depth] (or [depth] for a single stack), entries bottom
first. A whole ``stack_step`` (pop, push, prune, read) is one tape record
with a hand-written subgradient backward, computed on the [depth, B]
transpose of that tensor. The "strength above" sums are ``np.cumsum`` over
the entries taken top first, which adds in the same order as a per-entry
loop would. Its outputs are ``(read, new_strengths)``. ``stack_pop`` and
``stack_read`` run the same kernel with only their part of the directives.
A single (unbatched) stack is the B = 1 case, reshaped at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diffengine as de
from .diffengine import PRUNE_EPS, Tensor


class StackError(ValueError):
    """Malformed directive or value shape for this stack."""


@dataclass(frozen=True)
class StackDirectives:
    """Per-step controller outputs: push value v, strengths u (pop), d (push),
    r (read)."""

    v: Tensor
    u: Tensor
    d: Tensor
    r: Tensor


@dataclass(frozen=True)
class StackState:
    """Immutable stack: a tuple of value tensors, bottom first, and one
    strength tensor whose last axis runs over the same entries.

    A single stack has values [width] and strengths [depth]; a batch of B
    stacks evolving in lockstep has values [B, width] and strengths
    [B, depth]. ``batch`` (None for a single stack) and ``dtype`` are read
    from the strength tensor.
    """

    values: tuple
    strengths: Tensor
    width: int

    @classmethod
    def empty(cls, width, batch=None, dtype=np.float32):
        shape = (0,) if batch is None else (batch, 0)
        return cls((), de.zeros(shape, dtype=dtype), width)

    @property
    def batch(self):
        return None if self.strengths.ndim == 1 else self.strengths.shape[0]

    @property
    def dtype(self):
        return self.strengths.dtype

    @property
    def depth(self):
        return len(self.values)


def _coerce_strength(state, s, what):
    want = () if state.batch is None else (state.batch,)
    if isinstance(s, (int, float)):
        if s < 0:
            raise StackError(f"{what} strength must be >= 0, got {s}")
        return Tensor._wrap(np.full(want, s, dtype=state.dtype))
    if s.shape != want:
        raise StackError(f"{what} strength shape {s.shape}, expected {want}")
    if np.any(s.data < 0):
        raise StackError(f"{what} strength must be >= 0")
    return s


def _gate_backward(acc, g_gates, sel):
    """Backward of the top-down gates ``y_0 = x`` and ``y_k = max(x -
    above_k, 0)`` (k >= 1), where ``above_k`` sums entries 0..k-1, top first.

    ``g_gates`` [n, B] holds the cotangents of the ``y``s and ``sel`` [n-1, B]
    marks where the max took ``x - above_k`` (ties included). Adds the
    entries' share into ``acc`` [n, B] and returns ``dx`` [B]. Every sum runs
    in the order backward through a per-entry loop adds it, so the result is
    bit-identical to that loop's.
    """
    n = len(acc)
    dgap = g_gates[1:] * sel
    dx = g_gates[0]
    if n > 1:
        # the deepest gate first, the top's own term last
        dx = np.cumsum(dgap[::-1], axis=0)[-1] + dx
    if n > 2:
        # above_k's cotangent gathers from the deepest gate up to gate k
        tail = np.cumsum(-dgap[:0:-1], axis=0)[::-1]
        acc[1:-1] += tail
        acc[0] += tail[0]
    if n > 1:
        # above_1 is the top entry itself, so its gate lands on it last
        acc[0] -= dgap[0]
    return dx


def _transition(state, u=None, v=None, d=None, r=None, alive=None, prev_read=None):
    """Pop ``u``, push ``(v, d)``, prune, then read ``r``, as one tape record.

    Each part runs only when its directive is given; a push is followed by
    the prune. Returns ``(strengths, values, read)``: the new strength
    tensor, the value tensors and the read (None without ``r``). Rows where
    the bool ``alive`` is False pop 0, push 0 and read ``prev_read``. The
    strength matrix is [depth, B], so every running sum is a vector add over
    the batch.
    """
    lead = () if state.batch is None else (state.batch,)
    B = 1 if state.batch is None else state.batch
    W, dt, n = state.width, state.dtype, state.depth
    freeze = alive is not None and not alive.all()
    if freeze:
        alive = alive.reshape(B)
        frozen = np.flatnonzero(~alive)
    pop, push, read = u is not None and n > 0, d is not None, r is not None
    changed = pop or push

    def live(x):
        return np.where(alive, x, 0) if freeze else x

    S = np.ascontiguousarray(state.strengths.data.reshape(B, n).T)
    if pop:
        ud = live(u.data.reshape(B))
        top = S[::-1]
        gap = ud - np.cumsum(top[:-1], axis=0)
        pre = top - np.concatenate((ud[None], np.maximum(gap, 0)))
        de._note_kink(gap, 0)
        de._note_kink(pre, 0)
        S = np.maximum(pre, 0)[::-1]
    values = state.values
    if push:
        S = np.concatenate((S, live(d.data.reshape(B))[None]))
        values = values + (v,)
    n_post = len(S)
    cols = np.arange(n_post)
    if push:
        cols = np.flatnonzero(S.max(axis=1) >= PRUNE_EPS)
        if len(cols) < n_post:
            S = S[cols]
            values = tuple(values[i] for i in cols)

    outs, inputs = [], []
    if read:
        # entries top first: xts, xs, ktop and w line up entry by entry
        xts = values[::-1]
        xs = [x.data.reshape(B, W) for x in xts]
        rd = r.data.reshape(B)
        ktop = S[::-1]
        gap2 = rd - np.cumsum(ktop[:-1], axis=0)
        avail = np.concatenate((rd[None], np.maximum(gap2, 0)))
        w = np.minimum(ktop, avail)
        de._note_kink(gap2, 0)
        de._note_kink(ktop, avail)
        total = xs[0] * w[0][:, None] if xs else np.zeros((B, W), dt)
        for k in range(1, len(xs)):
            total += xs[k] * w[k][:, None]
        if freeze:
            total[frozen] = prev_read.data.reshape(B, W)[frozen]
        outs.append(total.reshape(lead + (W,)))
        inputs += [r, *xts] + ([prev_read] if freeze else [])
    if changed:
        outs.append(np.ascontiguousarray(S.T).reshape(lead + (len(S),)))
    if pop or read:
        inputs.append(state.strengths)
    if pop:
        inputs.append(u)
    if push:
        inputs.append(d)

    def bw(*gs):
        g_read = gs[0] if read else None
        g_strengths = gs[-1] if changed else None
        G = np.zeros((n_post, B), dt)  # cotangents of the pushed-to entries
        if g_strengths is not None:
            G[cols] = g_strengths.reshape(B, len(cols)).T
        grads = []
        if read:
            if g_read is None:
                grads += [None] * (1 + len(xs) + freeze)
            else:
                gr = g_read.reshape(B, W)
                if freeze:
                    # a frozen row's cotangent goes to prev_read, none to the stack
                    g_prev = np.zeros_like(gr)
                    g_prev[frozen] = gr[frozen]
                    gr = gr.copy()
                    gr[frozen] = 0
                if xs:
                    dw = np.stack([(gr * x).sum(axis=1) for x in xs])
                    sel = ktop <= avail
                    acc = G[cols][::-1]
                    dr = _gate_backward(acc, dw * ~sel, gap2 >= 0)
                    acc += dw * sel
                    G[cols] = acc[::-1]
                    grads.append(dr.reshape(r.shape))
                    grads += [(gr * w[k][:, None]).reshape(x.shape) for k, x in enumerate(xts)]
                else:
                    grads.append(None)
                if freeze:
                    grads.append(g_prev.reshape(prev_read.shape))
        if pop:
            t = G[:n][::-1] * (pre >= 0)
            acc = np.zeros_like(t)
            du = _gate_backward(acc, -t, gap >= 0)
            acc += t
            dS = acc[::-1]
        else:
            dS = G[:n]
        if pop or read:
            grads.append(dS.T.reshape(state.strengths.shape))
        if pop:
            grads.append(live(du).reshape(u.shape))
        if push:
            grads.append(live(G[-1]).reshape(d.shape))
        return grads

    if not outs:
        return state.strengths, values, None
    res = de._finish_many(outs, "stack_step", tuple(inputs), bw)
    return res[-1] if changed else state.strengths, values, res[0] if read else None


def stack_pop(state, u):
    """Remove ``u`` worth of strength from the top down.

    Each entry keeps ``max(0, s_i - max(0, u - sum_above))`` where
    ``sum_above`` is the original strength above it.
    """
    u = _coerce_strength(state, u, "pop")
    strengths, _, _ = _transition(state, u=u)
    return replace(state, strengths=strengths)


def stack_push(state, v, d):
    """Append one entry with value ``v`` and strength ``d``: one record that
    appends ``d`` as the last column of the strengths."""
    d = _coerce_strength(state, d, "push")
    want = (state.width,) if state.batch is None else (state.batch, state.width)
    if v.shape != want:
        raise StackError(f"push value shape {v.shape}, expected {want}")
    grown = np.concatenate((state.strengths.data, d.data[..., None]), axis=-1)
    strengths = de._finish(
        grown, "stack_push", (state.strengths, d), lambda g: (g[..., :-1], g[..., -1])
    )
    return StackState(state.values + (v,), strengths, state.width)


def stack_read(state, r):
    """Strength-weighted sum of value vectors from the top down.

    Entry i contributes ``min(s_i, max(0, r - sum_above))`` of its value; if
    total strength is below ``r`` the result just comes up short (shrinks
    toward zero for an empty stack).
    """
    r = _coerce_strength(state, r, "read")
    return _transition(state, r=r)[2]


def stack_step(state, directives, alive=None, prev_read=None):
    """One full transition: pop ``u``, push ``(v, d)``, read ``r``.

    Returns ``(new_state, read_vector)``; the whole step is one tape record.
    Entries whose strength fell below 1e-9 everywhere in the batch are pruned
    so depth stays bounded by the number of surviving pushes. ``alive`` is an
    optional bool mask over the batch: rows where it is False (their item has
    finished) pop and push nothing and return ``prev_read`` as their read.
    """
    if not isinstance(directives, StackDirectives):
        raise StackError(f"expected StackDirectives, got {type(directives).__name__}")
    u = _coerce_strength(state, directives.u, "pop")
    d = _coerce_strength(state, directives.d, "push")
    r = _coerce_strength(state, directives.r, "read")
    want = (state.width,) if state.batch is None else (state.batch, state.width)
    if directives.v.shape != want:
        raise StackError(f"push value shape {directives.v.shape}, expected {want}")
    if alive is not None:
        alive = np.asarray(alive, dtype=bool)
        if alive.shape != want[:-1]:
            raise StackError(f"alive mask shape {alive.shape}, expected {want[:-1]}")
        if not alive.all() and (prev_read is None or prev_read.shape != want):
            raise StackError(f"frozen rows need a prev_read of shape {want}")
    strengths, values, read = _transition(state, u, directives.v, d, r, alive, prev_read)
    return StackState(values, strengths, state.width), read


def total_strength(state):
    """Sum of entry strengths (0-d tensor, or [B] for a batched stack)."""
    return de.sum_last(state.strengths)
