import numpy as np
import pytest

from eclab import diffengine as de
from eclab.diffengine import PRUNE_EPS, Tape, Tensor, backward, grad_check, kink_margin, tensor
from eclab.neural_stack import (
    StackDirectives,
    StackError,
    StackState,
    stack_pop,
    stack_push,
    stack_read,
    stack_step,
    total_strength,
)


def f64(x):
    return tensor(x, dtype=np.float64)


def build(entries, width=2, dtype=np.float64):
    st = StackState.empty(width, dtype=dtype)
    for v, s in entries:
        st = stack_push(st, f64(v), float(s))
    return st


def strengths_of(state):
    return state.strengths.data.tolist()


def test_pop_consumes_top_down():
    # strengths bottom-to-top [0.3, 0.5], pop 0.6: top loses all 0.5,
    # the remaining 0.1 comes off the bottom entry
    st = build([([1.0, 0.0], 0.3), ([0.0, 1.0], 0.5)])
    out = stack_pop(st, 0.6)
    assert strengths_of(out) == pytest.approx([0.2, 0.0])


def test_read_comes_up_short_below_total():
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    st = build([(e1, 0.3), (e2, 0.5)])
    r = stack_read(st, 1.0)
    np.testing.assert_allclose(r.data, 0.5 * np.array(e2) + 0.3 * np.array(e1))


def test_full_step_with_merrill_strengths():
    a, b, c = [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]
    st = build([(a, 1.0), (b, 1.0)])
    d = StackDirectives(v=f64(c), u=f64(2.0), d=f64(0.5), r=f64(2.0))
    out, read = stack_step(st, d)
    # u=2 pops both unit entries; zero-strength survivors are pruned
    assert strengths_of(out) == pytest.approx([0.5])
    np.testing.assert_allclose(read.data, 0.5 * np.array(c))
    assert float(total_strength(out).data) == pytest.approx(0.5)


def test_push_appends_and_leaves_input_alone():
    st = build([([1.0, 1.0], 0.7)])
    out = stack_push(st, f64([2.0, 2.0]), 2.0)  # strengths above 1 are fine
    assert out.depth == st.depth + 1
    assert st.depth == 1 and strengths_of(st) == [0.7]
    assert strengths_of(out) == [0.7, 2.0]


def test_empty_stack_reads_zero_and_pop_is_noop():
    st = StackState.empty(3, dtype=np.float64)
    np.testing.assert_array_equal(stack_read(st, 1.0).data, np.zeros(3))
    assert stack_pop(st, 5.0).depth == 0
    assert float(total_strength(st).data) == 0.0


def test_overpop_clamps_at_zero():
    st = build([([1.0, 0.0], 0.4), ([0.0, 1.0], 0.2)])
    out = stack_pop(st, 10.0)
    assert strengths_of(out) == [0.0, 0.0]
    assert min(strengths_of(out)) >= 0.0


def test_read_strength_two_spans_entries():
    st = build([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([1.0, 1.0], 0.5)])
    r = stack_read(st, 2.0)
    # 0.5 of top, 1.0 of middle, 0.5 of bottom
    np.testing.assert_allclose(r.data, [0.5 * 1 + 0.5, 1.0 + 0.5 * 1])


def test_step_prunes_dust():
    st = build([([1.0, 0.0], 1e-12)])
    d = StackDirectives(v=f64([0.0, 1.0]), u=f64(0.0), d=f64(1.0), r=f64(1.0))
    out, _ = stack_step(st, d)
    assert out.depth == 1  # the 1e-12 entry is gone, only the new push remains
    assert strengths_of(out) == [1.0]


def test_directive_and_shape_errors():
    st = StackState.empty(2, dtype=np.float64)
    with pytest.raises(StackError, match=">= 0"):
        stack_pop(st, -0.1)
    with pytest.raises(StackError, match="strength"):
        stack_pop(st, f64([-0.5]) if False else f64(-0.5))
    with pytest.raises(StackError, match="value shape"):
        stack_push(st, f64([1.0, 2.0, 3.0]), 1.0)
    with pytest.raises(StackError, match="StackDirectives"):
        stack_step(st, (1, 2, 3))


def test_states_are_immutable_snapshots():
    st = build([([1.0, 0.0], 0.5)])
    before = strengths_of(st)
    stack_pop(st, 0.3)
    stack_push(st, f64([0.0, 1.0]), 0.25)
    stack_read(st, 1.0)
    assert strengths_of(st) == before and st.depth == 1


def _run_program(x):
    """Two stack steps driven by slices of x; returns a scalar."""
    w = np.array([0.7, -1.3])
    st = StackState.empty(2, dtype=np.float64)
    u1 = de.maximum(de.take_last(x, 0), 0.0)
    d1 = de.maximum(de.take_last(x, 1), 0.0)
    st = stack_pop(st, u1)
    st = stack_push(st, de.slice_last(x, 4, 6), d1)
    out1 = stack_read(st, de.maximum(de.take_last(x, 2), 0.0))
    u2 = de.maximum(de.take_last(x, 3), 0.0)
    st = stack_pop(st, u2)
    st = stack_push(st, de.slice_last(x, 6, 8), de.maximum(de.take_last(x, 0), 0.0))
    out2 = stack_read(st, de.maximum(de.take_last(x, 1), 0.0))
    total = de.add(out1, out2)
    return de.reduce_sum(de.mul(total, f64(w)))


def test_gradients_flow_through_strengths_and_values():
    rng = np.random.default_rng(29)
    found = 0
    for _ in range(80):
        x = f64(rng.uniform(0.05, 1.2, size=8))
        if kink_margin(_run_program, x) < 1e-4:
            continue
        assert grad_check(_run_program, x) < 1e-6
        found += 1
        if found == 10:
            break
    assert found == 10


def test_zero_strength_entry_contributes_nothing():
    st = build([([5.0, 5.0], 0.0), ([1.0, 0.0], 1.0)])
    np.testing.assert_allclose(stack_read(st, 2.0).data, [1.0, 0.0])


def _random_directives(rng, width, batch=None):
    shape_v = (width,) if batch is None else (batch, width)
    shape_s = () if batch is None else (batch,)
    return (
        rng.standard_normal(shape_v),
        rng.uniform(0, 2, size=shape_s),
        rng.uniform(0, 2, size=shape_s),
        rng.uniform(0, 2, size=shape_s),
    )


def test_batched_matches_per_item_loop():
    rng = np.random.default_rng(31)
    width, batch, steps = 3, 5, 6
    programs = [_random_directives(rng, width, batch) for _ in range(steps)]

    bst = StackState.empty(width, batch=batch, dtype=np.float64)
    breads = []
    for v, u, d, r in programs:
        bst, read = stack_step(
            bst, StackDirectives(v=f64(v), u=f64(u), d=f64(d), r=f64(r))
        )
        breads.append(read.data)

    for b in range(batch):
        st = StackState.empty(width, dtype=np.float64)
        for t, (v, u, d, r) in enumerate(programs):
            st, read = stack_step(
                st,
                StackDirectives(
                    v=f64(v[b]), u=f64(float(u[b])), d=f64(float(d[b])), r=f64(float(r[b]))
                ),
            )
            np.testing.assert_allclose(read.data, breads[t][b], atol=1e-12)


def test_batched_gradients_flow():
    rng = np.random.default_rng(37)
    width, batch = 2, 3
    v1 = f64(rng.standard_normal((batch, width)))
    v2 = f64(rng.standard_normal((batch, width)))

    def f(u):
        st = StackState.empty(width, batch=batch, dtype=np.float64)
        st = stack_push(st, v1, f64(np.full(batch, 1.0)))
        st = stack_pop(st, u)
        st = stack_push(st, v2, f64(np.full(batch, 0.5)))
        return de.reduce_sum(stack_read(st, f64(np.full(batch, 2.0))))

    u0 = f64(rng.uniform(0.1, 0.8, size=batch))
    assert kink_margin(f, u0) > 1e-3
    assert grad_check(f, u0) < 1e-7


# ---------------------------------------------------------------------------
# the fused step against the per-entry composite it replaced


def _weighted(value, w):
    return de.scale_rows(value, w) if value.ndim == 2 else de.mul(value, w)


def ref_step(strengths, values, v, u, d, r, alive=None, prev_read=None):
    """pop -> push -> prune -> read as the per-entry loop of maximum/minimum/
    sub/add/scale_rows records, with the row freeze done outside the stack."""
    keep = None
    if alive is not None and not alive.all():
        keep = Tensor._wrap(alive.astype(np.float64))
        u, d = de.mul(u, keep), de.mul(d, keep)
    popped, above = [None] * len(strengths), None
    for i in range(len(strengths) - 1, -1, -1):
        s = strengths[i]
        deficit = u if above is None else de.maximum(de.sub(u, above), 0.0)
        popped[i] = de.maximum(de.sub(s, deficit), 0.0)
        above = s if above is None else de.add(above, s)
    kept = [
        i for i, s in enumerate(popped + [d]) if float(np.max(s.data)) >= PRUNE_EPS
    ]
    strengths = [(popped + [d])[i] for i in kept]
    values = [(list(values) + [v])[i] for i in kept]
    read, above = None, None
    for i in range(len(strengths) - 1, -1, -1):
        s = strengths[i]
        avail = r if above is None else de.maximum(de.sub(r, above), 0.0)
        part = _weighted(values[i], de.minimum(s, avail))
        read = part if read is None else de.add(read, part)
        above = s if above is None else de.add(above, s)
    if read is None:
        read = de.zeros(v.shape, dtype=v.dtype)
    if keep is not None:
        drop = Tensor._wrap((~alive).astype(np.float64))
        read = de.add(de.scale_rows(read, keep), de.scale_rows(prev_read, drop))
    return strengths, values, read


def fused_step(strengths, values, v, u, d, r, alive=None, prev_read=None):
    batch = None if v.ndim == 1 else v.shape[0]
    st = StackState.empty(v.shape[-1], batch, np.float64)
    for x, s in zip(values, strengths):
        st = stack_push(st, x, s)
    st, read = stack_step(st, StackDirectives(v=v, u=u, d=d, r=r), alive, prev_read)
    column = lambda k: k if batch is None else np.full(batch, k)
    strengths = [de.take_last(st.strengths, column(k)) for k in range(st.depth)]
    return strengths, list(st.values), read


def make_leaves(rng, batch, width=3, depth=3, steps=4, dust=False, ties=False):
    """Prior entries plus per-step directives; ``batch`` None is one stack.
    ``ties`` draws every strength and directive from {0, 1}, the discrete
    limit, where the max/min gates sit exactly on their ties."""
    lead = () if batch is None else (batch,)
    leaves = {"read0": rng.normal(size=lead + (width,))}
    for i in range(depth):
        leaves[f"s{i}"] = rng.uniform(0.2, 1.4, size=lead)
        leaves[f"x{i}"] = rng.normal(size=lead + (width,))
    if dust:
        leaves["s1"] = np.full(lead, 1e-12)
    for t in range(steps):
        leaves[f"v{t}"] = rng.normal(size=lead + (width,))
        for name in "udr":
            leaves[f"{name}{t}"] = rng.uniform(0.05, 1.9, size=lead)
    if ties:
        for k in leaves:
            if k[0] in "sud" and k[1:].isdigit():
                leaves[k] = rng.integers(0, 2, size=lead).astype(float)
            elif k[0] == "r" and k[1:].isdigit():
                leaves[k] = np.ones(lead)
    return {k: f64(a) for k, a in leaves.items()}


def stack_program(step, leaves, alive_steps=None):
    """Run the steps; the loss touches every read and the final strengths."""
    depth = sum(1 for k in leaves if k.startswith("s"))
    steps = sum(1 for k in leaves if k.startswith("v"))
    strengths = [leaves[f"s{i}"] for i in range(depth)]
    values = [leaves[f"x{i}"] for i in range(depth)]
    read = leaves["read0"]
    c = f64(np.linspace(-1.0, 1.3, read.shape[-1]))
    loss = None
    for t in range(steps):
        alive = None if alive_steps is None else alive_steps[t]
        strengths, values, read = step(
            strengths, values,
            *(leaves[f"{n}{t}"] for n in "vudr"),
            alive=alive, prev_read=read,
        )
        term = de.reduce_sum(_weighted(read, c) if read.ndim == 1 else de.matmul(read, c))
        loss = term if loss is None else de.add(loss, term)
    for k, s in enumerate(strengths):
        loss = de.add(loss, de.mul(de.reduce_sum(s), 0.3 + 0.1 * k))
    return loss, strengths, read


# per-step alive masks of three rows that finish after 3, 1 and 2 steps
FROZEN = [np.array(m, dtype=bool) for m in ([1, 1, 1], [1, 0, 1], [1, 0, 0], [0, 0, 0])]


@pytest.mark.parametrize(
    "batch, alive_steps, kind",
    [
        (None, None, ""),
        (1, None, ""),
        (3, None, ""),
        (3, FROZEN, ""),
        (3, FROZEN, "dust"),
        (None, None, "ties"),
        (5, FROZEN, "ties"),
    ],
)
def test_fused_step_matches_composite(batch, alive_steps, kind):
    if alive_steps is not None and batch != len(alive_steps[0]):
        alive_steps = [np.resize(m, batch) for m in alive_steps]
    leaves = make_leaves(
        np.random.default_rng(41), batch, dust=kind == "dust", ties=kind == "ties"
    )
    got, want = {}, {}
    for step, out in ((fused_step, got), (ref_step, want)):
        with Tape() as tape:
            loss, strengths, read = stack_program(step, leaves, alive_steps)
        grads = backward(tape, loss)
        out["loss"] = loss.data
        out["read"] = read.data
        out["strengths"] = [s.data for s in strengths]
        out["grads"] = {k: grads[t] for k, t in leaves.items()}
    # the forward is exactly equal, the gradients agree to float64 round-off
    assert np.array_equal(got["loss"], want["loss"])
    assert np.array_equal(got["read"], want["read"])
    assert len(got["strengths"]) == len(want["strengths"])
    for a, b in zip(got["strengths"], want["strengths"]):
        assert np.array_equal(a, b)
    for k in leaves:
        np.testing.assert_allclose(got["grads"][k], want["grads"][k], rtol=1e-12, atol=1e-14)


def run_both(program, leaves):
    """``program(step, leaves) -> (loss, strengths, read)`` under the fused
    step and under ``ref_step``: forward outputs and leaf gradients of each."""
    out = []
    for step in (fused_step, ref_step):
        with Tape() as tape:
            loss, strengths, read = program(step, leaves)
        grads = backward(tape, loss)
        leaf_grads = {k: grads[t] for k, t in leaves.items()}
        out.append(([s.data for s in strengths], read.data, leaf_grads))
    return out


@pytest.mark.parametrize("batch, alive_steps", [(None, None), (3, None), (3, FROZEN)])
def test_fused_step_backward_with_no_read_cotangent(batch, alive_steps):
    # the loss reaches the strengths alone, so every read's cotangent is None
    def program(step, leaves):
        strengths = [leaves[f"s{i}"] for i in range(3)]
        values = [leaves[f"x{i}"] for i in range(3)]
        read = leaves["read0"]
        for t in range(4):
            alive = None if alive_steps is None else alive_steps[t]
            args = (leaves[f"{n}{t}"] for n in "vudr")
            strengths, values, read = step(strengths, values, *args, alive=alive, prev_read=read)
        loss = de.reduce_sum(strengths[0])
        for k, s in enumerate(strengths[1:]):
            loss = de.add(loss, de.mul(de.reduce_sum(s), 0.4 + 0.1 * k))
        return loss, strengths, read

    leaves = make_leaves(np.random.default_rng(61), batch)
    (s_got, read_got, got), (s_want, read_want, want) = run_both(program, leaves)
    assert np.array_equal(read_got, read_want)
    assert len(s_got) == len(s_want) and all(map(np.array_equal, s_got, s_want))
    for k in leaves:
        np.testing.assert_allclose(got[k], want[k], rtol=1e-12, atol=1e-14)
    assert np.all(got["r1"] == 0.0) and np.all(got["read0"] == 0.0)
    assert np.any(got["u1"] != 0.0) and np.any(got["s0"] != 0.0)


@pytest.mark.parametrize("batch", [None, 3])
def test_fused_step_read_of_a_stack_pruned_to_empty(batch):
    # every row pops more than the stack holds and pushes 0, so the prune
    # leaves no entry and the read, which the loss reaches, is zero
    leaves = make_leaves(np.random.default_rng(67), batch, steps=1)
    lead = () if batch is None else (batch,)
    leaves["u0"], leaves["d0"] = f64(np.full(lead, 10.0)), f64(np.zeros(lead))
    (s_got, read_got, got), (s_want, read_want, want) = run_both(stack_program, leaves)
    assert s_got == s_want == []
    assert np.array_equal(read_got, read_want) and not read_got.any()
    for k in leaves:
        np.testing.assert_allclose(got[k], want[k], rtol=1e-12, atol=1e-14)
        assert not got[k].any(), k


def margin_off_exact_ties(monkeypatch, f, x):
    """``kink_margin`` over the ties that are not exact. With random operands
    an exact tie is structural -- a fully popped entry that is not popped
    further, or a frozen row popping 0 under zero-strength pushes -- and no
    small perturbation moves it off the kink."""
    note = de._note_kink

    def note_inexact(a, b):
        diff = np.abs(np.asarray(a) - b)
        note(diff[diff > 0], 0.0)

    with monkeypatch.context() as m:
        m.setattr(de, "_note_kink", note_inexact)
        return kink_margin(f, x)


@pytest.mark.parametrize(
    "batch, alive_steps", [(None, None), (1, None), (3, None), (3, FROZEN)]
)
def test_fused_step_grad_check(monkeypatch, batch, alive_steps):
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(40):
        leaves = make_leaves(rng, batch)

        def f_u0(x):
            return stack_program(fused_step, {**leaves, "u0": x}, alive_steps)[0]

        if margin_off_exact_ties(monkeypatch, f_u0, leaves["u0"]) < 1e-4:
            continue
        for name in ("u0", "u2", "d1", "r2", "v0", "v3", "s0", "s2", "x1", "read0"):

            def f(x, name=name):
                return stack_program(fused_step, {**leaves, name: x}, alive_steps)[0]

            assert grad_check(f, leaves[name]) < 1e-6, name
        checked += 1
        if checked == 2:
            break
    assert checked == 2


def build_batch(leaves, batch, depth=3):
    """A batch of stacks holding the entries ``x{i}`` with strengths ``s{i}``."""
    st = StackState.empty(leaves["x0"].shape[-1], batch=batch, dtype=np.float64)
    for i in range(depth):
        st = stack_push(st, leaves[f"x{i}"], leaves[f"s{i}"])
    return st


def test_fused_step_frozen_rows_pass_through():
    leaves = make_leaves(np.random.default_rng(47), 3, steps=2)
    alive = np.array([True, False, True])
    st = build_batch(leaves, 3)
    with Tape() as tape:
        out, read = stack_step(
            st,
            StackDirectives(v=leaves["v0"], u=leaves["u0"], d=leaves["d0"], r=leaves["r0"]),
            alive=alive,
            prev_read=leaves["read0"],
        )
        loss = de.reduce_sum(read)
    # the frozen row keeps its read and strengths and pushed nothing
    np.testing.assert_array_equal(read.data[1], leaves["read0"].data[1])
    for s_old, s_new in zip(st.strengths.data.T, out.strengths.data.T):
        assert s_new[1] == s_old[1]
    assert out.strengths.data[1, -1] == 0.0
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[leaves["read0"]], [[0.0] * 3, [1.0] * 3, [0.0] * 3])
    for name in ("u0", "d0", "r0"):
        assert grads[leaves[name]][1] == 0.0
    assert np.all(grads[leaves["v0"]][1] == 0.0)


def test_fused_step_prunes_dust_across_the_batch():
    st = StackState.empty(2, batch=2, dtype=np.float64)
    st = stack_push(st, f64([[1.0, 0.0], [0.0, 1.0]]), f64([1e-12, 0.0]))
    st = stack_push(st, f64([[2.0, 0.0], [0.0, 2.0]]), f64([0.0, 0.5]))
    d = StackDirectives(v=f64([[3.0, 3.0], [4.0, 4.0]]), u=f64([0.0, 0.0]), d=f64([1.0, 0.0]), r=f64([2.0, 2.0]))
    out, read = stack_step(st, d)
    # the dust entry is gone; an entry alive in any row survives
    assert out.depth == 2
    assert out.strengths.data.T.tolist() == [[0.0, 0.5], [1.0, 0.0]]
    np.testing.assert_allclose(read.data, [[3.0, 3.0], [0.0, 1.0]])


def test_fused_step_is_one_tape_record():
    leaves = make_leaves(np.random.default_rng(53), 4, steps=1)
    st = build_batch(leaves, 4)
    d = StackDirectives(v=leaves["v0"], u=leaves["u0"], d=leaves["d0"], r=leaves["r0"])
    with Tape() as tape:
        stack_step(st, d)
    assert len(tape) == 1
    with Tape() as tape:
        stack_step(st, d, alive=np.array([True, False, True, True]), prev_read=leaves["read0"])
    assert len(tape) == 1
    with Tape() as tape:
        stack_pop(st, leaves["u0"])
        stack_read(st, leaves["r0"])
    assert len(tape) == 2


def test_kink_margin_sees_the_fused_step():
    rng = np.random.default_rng(59)
    for batch, alive_steps in ((3, None), (3, FROZEN), (None, None)):
        for _ in range(5):
            leaves = make_leaves(rng, batch)
            margins = [
                kink_margin(lambda x: stack_program(step, {**leaves, "u0": x}, alive_steps)[0], leaves["u0"])
                for step in (fused_step, ref_step)
            ]
            assert margins[0] == margins[1] < float("inf")
    # a pop that exactly empties the top entry sits on a kink
    st = build([([1.0, 0.0], 0.5)])
    assert kink_margin(lambda u: stack_pop(st, u).strengths, f64(0.5)) == 0.0


def test_alive_mask_errors():
    st = StackState.empty(2, batch=2, dtype=np.float64)
    d = StackDirectives(v=f64(np.ones((2, 2))), u=f64([0.5, 0.5]), d=f64([1.0, 1.0]), r=f64([1.0, 1.0]))
    with pytest.raises(StackError, match="alive mask shape"):
        stack_step(st, d, alive=np.array([True, False, True]))
    with pytest.raises(StackError, match="prev_read"):
        stack_step(st, d, alive=np.array([True, False]))
    # an all-alive mask needs no previous read
    _, read = stack_step(st, d, alive=np.array([True, True]))
    np.testing.assert_allclose(read.data, np.ones((2, 2)))
