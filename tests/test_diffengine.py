import gc
import tracemalloc

import numpy as np
import pytest

from eclab import diffengine as de
from eclab.diffengine import (
    AdamState,
    DiffError,
    ShapeError,
    Tape,
    Tensor,
    adam_step,
    backward,
    grad_check,
    kink_margin,
    tensor,
)
from eclab.neural_stack import (
    StackDirectives,
    StackState,
    stack_pop,
    stack_push,
    stack_read,
    stack_step,
    total_strength,
)


def f64(x):
    return tensor(x, dtype=np.float64)


def rand_smooth_point(rng, build, shape, h=1e-5, tries=50):
    # Resample until the evaluation point is at least 10h from every kink
    # that the function's max/min ops see.
    for _ in range(tries):
        x = f64(rng.standard_normal(shape))
        if kink_margin(build, x) >= 10 * h:
            return x
    raise AssertionError("could not find a kink-free evaluation point")


def test_unary_fixed_points():
    assert de.sigmoid(f64(0.0)).item() == 0.5
    assert de.tanh(f64(0.0)).item() == 0.0
    assert de.exp(f64(0.0)).item() == 1.0
    assert de.log(f64(1.0)).item() == 0.0


def test_relu_negative_input_zero_value_and_grad():
    x = f64(-1.0)
    with Tape() as tape:
        y = de.maximum(x, 0.0)
    assert y.item() == 0.0
    assert backward(tape, y)[x] == 0.0


def test_max_tie_goes_to_first_operand():
    x = f64(2.0)
    y = f64(2.0)
    with Tape() as tape:
        out = de.maximum(x, y)
    g = backward(tape, out)
    assert g[x] == 1.0
    assert g[y] == 0.0
    with Tape() as tape:
        out = de.minimum(x, y)
    g = backward(tape, out)
    assert g[x] == 1.0
    assert g[y] == 0.0


def test_softmax_uniform_logits():
    p = de.softmax(f64(np.zeros(4))).data
    np.testing.assert_allclose(p, np.full(4, 0.25), rtol=0, atol=1e-15)
    lp = de.log_softmax(f64(np.zeros(4))).data
    np.testing.assert_allclose(lp, np.full(4, np.log(0.25)), atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(7)
    x = f64(rng.standard_normal((3, 5)))
    np.testing.assert_allclose(
        de.log_softmax(x).data, np.log(de.softmax(x).data), atol=1e-12
    )


def test_backward_sum_of_squares():
    w = f64([1.0, -2.0, 3.0])
    with Tape() as tape:
        loss = de.reduce_sum(de.mul(w, w))
    np.testing.assert_allclose(backward(tape, loss)[w], 2 * w.data, atol=0)


def test_unreached_tensor_has_zero_grad():
    x = f64([1.0, 2.0])
    y = f64([3.0, 4.0])
    with Tape() as tape:
        loss = de.reduce_sum(de.mul(x, x))
    g = backward(tape, loss)
    assert y not in g
    np.testing.assert_array_equal(g[y], np.zeros(2))


def test_intermediates_and_loss_have_no_gradient_entry():
    x = f64([1.0, -2.0, 3.0])
    with Tape() as tape:
        y = de.mul(x, x)
        z = de.tanh(y)
        loss = de.reduce_sum(z)
    g = backward(tape, loss)
    for t in (y, z, loss):
        assert t not in g
        np.testing.assert_array_equal(g[t], np.zeros(t.shape))
    assert x in g
    np.testing.assert_array_equal(g[x], (1.0 - z.data**2) * 2.0 * x.data)


def test_wrt_drops_constant_leaves():
    # a constant leaf's cotangent is dropped on arrival: it reads zero and has
    # no entry, while the wanted leaf's gradient is unchanged
    # (a tape runs backward once, so the same loss is recorded on two)
    w = f64([0.5, -1.5, 2.0])
    const = f64([3.0, 1.0, -2.0])

    def recorded():
        with Tape() as tape:
            loss = de.reduce_sum(de.mul(de.tanh(de.mul(w, const)), const))
        return tape, loss

    full = backward(*recorded())
    only_w = backward(*recorded(), wrt=[w])
    assert const in full and const not in only_w
    np.testing.assert_array_equal(only_w[const], np.zeros(3))
    np.testing.assert_array_equal(only_w[w], full[w])


def test_play_batch_keeps_no_constant_leaf_entries(monkeypatch):
    from eclab import game
    from eclab.meanings import enumerate_attr_val

    seen = []
    real = game.backward

    def spy(*args, **kwargs):
        g = real(*args, **kwargs)
        seen.append(g)
        return g

    monkeypatch.setattr(game, "backward", spy)
    space = enumerate_attr_val(2, 3)
    config = game.GameConfig(hidden=8, embedding=4, vocab=3, max_len=3, beta_mode="rewo")
    sender, receiver = game.build_agents(space, config, np.random.default_rng(0), np.float64)
    game.play_batch(
        sender, receiver, space.meanings, config, np.random.default_rng(1),
        game.BaselineState(value=0.0), beta=0.5,
    )
    params = game.joint_parameters(sender, receiver)
    assert {id(t) for t, _ in seen[0]._table.values()} <= {id(t) for t in params.values()}


def test_gather_rows_is_one_record_that_scatter_adds():
    rng = np.random.default_rng(61)
    a = f64(rng.normal(size=(4, 3)))
    s = f64(rng.normal(size=4))
    idx = np.array([2, 0, 2, 3, 2])
    ga, gs = rng.normal(size=(5, 3)), rng.normal(size=5)
    with Tape() as tape:
        out_a, out_s = de.gather_rows((a, s), idx)
        loss = de.add(
            de.reduce_sum(de.mul(out_a, f64(ga))), de.reduce_sum(de.mul(out_s, f64(gs)))
        )
    assert isinstance(tape._nodes[0][0], tuple) and len(tape) == 6  # one record, two outputs
    np.testing.assert_array_equal(out_a.data, a.data[idx])
    np.testing.assert_array_equal(out_s.data, s.data[idx])
    grads = backward(tape, loss)
    want_a, want_s = np.zeros((4, 3)), np.zeros(4)
    np.add.at(want_a, idx, ga)
    np.add.at(want_s, idx, gs)
    np.testing.assert_array_equal(grads[a], want_a)  # row 1 is gathered by none
    np.testing.assert_array_equal(grads[s], want_s)


def test_gather_rows_backward_from_one_output_and_grad_check():
    rng = np.random.default_rng(67)
    a, b = f64(rng.normal(size=(3, 2))), f64(rng.normal(size=3))
    idx = np.array([1, 1, 0, 2, 1])
    with Tape() as tape:
        _, out_b = de.gather_rows((a, b), idx)
        loss = de.reduce_sum(out_b)
    grads = backward(tape, loss)
    assert a not in grads
    np.testing.assert_array_equal(grads[b], [1.0, 3.0, 1.0])
    w = f64(rng.normal(size=(5, 2)))
    f = lambda x: de.reduce_sum(de.mul(de.tanh(de.gather_rows((x,), idx)[0]), w))
    assert grad_check(f, a) < 1e-8


def test_gather_rows_rejects_bad_shapes():
    a, b = f64(np.zeros((3, 2))), f64(np.zeros(4))
    with pytest.raises(ShapeError, match="gather_rows"):
        de.gather_rows((a, b), np.array([0]))
    with pytest.raises(ShapeError, match="gather_rows"):
        de.gather_rows((a,), np.array([[0]]))
    with pytest.raises(ShapeError, match="gather_rows"):
        de.gather_rows((f64(np.zeros((2, 2, 2))),), np.array([0]))
    with pytest.raises(ShapeError, match="gather_rows"):
        de.gather_rows((), np.array([0]))
    with pytest.raises(IndexError):
        de.gather_rows((a,), np.array([3]))


def _tensors_reachable_from(obj, depth):
    found, frontier = [], [obj]
    for _ in range(depth):
        frontier = [r for o in frontier for r in gc.get_referents(o)]
        found += [r for r in frontier if isinstance(r, Tensor)]
    return found


def test_leaf_known_only_to_the_tape_outlives_the_tape():
    # ``weighted`` makes a leaf that nothing but the tape refers to; its
    # gradient entry must keep it alive, or its id could be handed to a new
    # tensor while the entry still answers for it
    def weighted(x):
        w = f64([0.5, -1.5])
        return de.reduce_sum(de.mul(x, w))

    x = f64([2.0, 3.0])
    with Tape() as tape:
        loss = weighted(x)
    w_id = id(tape._nodes[0][1][1])
    g = backward(tape, loss)
    del tape, loss
    gc.collect()
    (w,) = [t for t in _tensors_reachable_from(g, 3) if id(t) == w_id]
    np.testing.assert_array_equal(w.data, [0.5, -1.5])
    assert w in g
    np.testing.assert_array_equal(g[w], x.data)


class _EveryEntry:
    def __init__(self, table):
        self.table = table

    def __getitem__(self, t):
        g = self.table.get(id(t))
        return np.zeros(t.shape, dtype=t.dtype) if g is None else np.asarray(g, dtype=t.dtype)


def _backward_keeping_every_entry(tape, loss, wrt=None):
    # backward as it was before cotangents were released: table.get, never pop,
    # and an entry for every leaf whatever ``wrt`` asks for
    table = {id(loss): np.ones((), dtype=loss.dtype)}
    for outs, inputs, bw, _ in reversed(tape._nodes):
        g = [table.get(id(o)) for o in outs]
        if all(gi is None for gi in g):
            continue
        for t, gi in zip(inputs, bw(*g)):
            if gi is not None:
                acc = table.get(id(t))
                table[id(t)] = gi if acc is None else acc + gi
    return _EveryEntry(table)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("strategy", ["learned", "left", "random"])
@pytest.mark.parametrize("space_kind", ["attr_val", "dyck"])
def test_play_batch_gradients_equal_a_table_that_keeps_every_entry(
    space_kind, strategy, dtype, monkeypatch
):
    from eclab import game
    from eclab.meanings import enumerate_attr_val, enumerate_dyck

    space = enumerate_attr_val(2, 3) if space_kind == "attr_val" else enumerate_dyck(2, 6)
    config = game.GameConfig(
        strategy=strategy, beta_mode="rewo", batch_size=8, hidden=8, embedding=4,
        vocab=3, max_len=4,
    )

    def grads():
        sender, receiver = game.build_agents(
            space, config, np.random.default_rng(3), dtype=dtype
        )
        meanings = [space.meanings[i] for i in np.random.default_rng(5).integers(
            0, len(space.meanings), size=config.batch_size
        )]
        _, g, _ = game.play_batch(
            sender, receiver, meanings, config, rng=np.random.default_rng(7),
            baseline=game.BaselineState(), beta=0.3, branch_rng=np.random.default_rng(9),
        )
        return g

    released = grads()
    monkeypatch.setattr(game, "backward", _backward_keeping_every_entry)
    kept = grads()
    assert set(released) == set(kept)
    for name in kept:
        assert released[name].dtype == dtype
        np.testing.assert_array_equal(released[name], kept[name], err_msg=name)


def _watch_returned(tape):
    # wraps every record's backward to keep each array it returns beside a copy
    returned = []

    def watch(bw):
        def wrapped(*gs):
            out = bw(*gs)
            returned.extend((g, np.array(g)) for g in out if g is not None)
            return out

        return wrapped

    tape._nodes[:] = [(outs, ins, watch(bw), op) for outs, ins, bw, op in tape._nodes]
    return returned


def test_backward_sums_in_place_only_into_arrays_it_allocated():
    # ``add`` and ``add_bias`` hand one cotangent array to several inputs,
    # and ``x`` is used by three ops, so its sum grows over four arrivals
    rng = np.random.default_rng(83)
    x, bias = f64(rng.standard_normal((3, 4))), f64(rng.standard_normal(4))
    a, w = f64(rng.standard_normal((3, 4))), f64(rng.standard_normal((3, 4)))

    def taped():
        with Tape() as tape:
            s = de.add(de.add(de.add(x, x), de.mul(x, a)), de.add_bias(x, bias))
            loss = de.reduce_sum(de.mul(s, w))
        return tape, loss

    tape, loss = taped()
    returned = _watch_returned(tape)
    grads = backward(tape, loss)
    expected = _backward_keeping_every_entry(*taped())
    for t in (x, bias, a, w):
        assert grads[t].tobytes() == expected[t].tobytes()
    assert len(returned) == 13  # two per binary op and add_bias, one for reduce_sum
    for g, copy in returned:
        assert g.tobytes() == copy.tobytes()


def test_backward_requires_scalar_loss_from_this_tape():
    x = f64([1.0, 2.0])
    with Tape() as tape:
        y = de.mul(x, x)
    with pytest.raises(ShapeError):
        backward(tape, y)
    with Tape() as t1:
        z = de.reduce_sum(de.mul(x, x))
    with Tape() as t2:
        de.reduce_sum(x)
    with pytest.raises(DiffError):
        backward(t2, z)


def test_shape_error_names_op_and_shapes():
    a = f64(np.zeros((2, 3)))
    b = f64(np.zeros((3, 2)))
    with pytest.raises(ShapeError, match=r"add.*\(2, 3\).*\(3, 2\)"):
        de.add(a, b)
    with pytest.raises(ShapeError, match="dtype"):
        de.add(a, tensor(np.zeros((2, 3)), dtype=np.float32))


@pytest.mark.parametrize(
    "a_shape,b_shape,b_dtype,match",
    [
        ((3,), (3,), np.float64, "unsupported ranks 1 and 1"),
        ((), (3, 2), np.float64, "unsupported ranks 0 and 2"),
        ((2, 3), (3, 2, 2), np.float64, "unsupported ranks 2 and 3"),
        ((4, 3), (4, 2), np.float64, r"incompatible shapes \(4, 3\) and \(4, 2\)"),
        ((3,), (4, 2), np.float64, r"incompatible shapes \(3,\) and \(4, 2\)"),
        ((4, 3), (4,), np.float64, r"incompatible shapes \(4, 3\) and \(4,\)"),
        ((2, 3), (3, 2), np.float32, "dtype mismatch float64 vs float32"),
    ],
    ids=["1d-1d", "0d", "3d", "inner-22", "inner-12", "inner-21", "dtype"],
)
def test_matmul_shape_errors(a_shape, b_shape, b_dtype, match):
    a, b = f64(np.zeros(a_shape)), tensor(np.zeros(b_shape), dtype=b_dtype)
    with Tape() as tape:
        with pytest.raises(ShapeError, match="matmul: " + match):
            de.matmul(a, b)
    assert len(tape) == 0


def test_log_of_zero_is_minus_infinity():
    with np.errstate(divide="ignore"):
        assert np.isneginf(de.log(f64(0.0)).item())


def test_tensors_are_read_only():
    t = tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_take_rows_accumulates_duplicate_indices():
    table = f64(np.arange(6.0).reshape(3, 2))
    with Tape() as tape:
        out = de.take_rows(table, np.array([1, 1, 2]))
        loss = de.reduce_sum(out)
    g = backward(tape, table if False else loss)[table]
    np.testing.assert_array_equal(g, [[0, 0], [2, 2], [1, 1]])


def test_take_rows_gradient_adds_rows_in_batch_order():
    # the same accumulation as np.add.at over rows, negative indices included
    rng = np.random.default_rng(5)
    table = tensor(rng.normal(size=(4, 3)), dtype=np.float32)
    idx = np.array([3, 0, -1, 3, 1, 0, 3, -4])
    g = rng.normal(size=(len(idx), 3)).astype(np.float32)
    with Tape() as tape:
        out = de.take_rows(table, idx)
        loss = de.reduce_sum(de.mul(out, tensor(g, dtype=np.float32)))
    want = np.zeros((4, 3), dtype=np.float32)
    np.add.at(want, idx, g)
    np.testing.assert_array_equal(backward(tape, loss)[table], want)


def test_grad_check_rejects_nothing_smooth():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(5)

    def f(x):
        return de.reduce_sum(de.mul(de.tanh(x), f64(w)))

    x = f64(rng.standard_normal(5))
    assert grad_check(f, x) < 1e-7


SHAPED_OPS = [
    ("sigmoid", lambda x, c: de.sigmoid(x), (4,)),
    ("tanh", lambda x, c: de.tanh(x), (4,)),
    ("exp", lambda x, c: de.exp(x), (4,)),
    ("log", lambda x, c: de.log(de.add(de.mul(de.tanh(x), 0.4), 1.5)), (4,)),
    ("softmax", lambda x, c: de.softmax(x), (2, 5)),
    ("log_softmax", lambda x, c: de.log_softmax(x), (2, 5)),
    ("add", lambda x, c: de.add(x, c), (3, 2)),
    ("sub", lambda x, c: de.sub(x, c), (3, 2)),
    ("mul", lambda x, c: de.mul(x, c), (3, 2)),
    ("maximum", lambda x, c: de.maximum(x, c), (3, 2)),
    ("minimum", lambda x, c: de.minimum(x, c), (3, 2)),
    ("max_const", lambda x, c: de.maximum(x, 0.0), (6,)),
    ("min_const", lambda x, c: de.minimum(x, 0.5), (6,)),
    ("matmul22", lambda x, c: de.matmul(x, c), (3, 4)),
    ("matmul12", lambda x, c: de.matmul(x, de.tanh(c)), (4,)),
    ("matmul21", lambda x, c: de.matmul(x, de.sum_last(x)), (4, 4)),
    ("add_bias", lambda x, c: de.add_bias(x, c), (3, 4)),
    ("scale_rows", lambda x, c: de.scale_rows(x, de.sum_last(c)), (3, 4)),
    ("slice_last", lambda x, c: de.slice_last(x, 1, 3), (2, 4)),
    ("sum_last", lambda x, c: de.sum_last(x), (2, 4)),
    ("scale", lambda x, c: de.mul(x, 0.37), (5,)),
]


@pytest.mark.parametrize("name,op,shape", SHAPED_OPS, ids=[o[0] for o in SHAPED_OPS])
def test_grad_check_each_op(name, op, shape):
    rng = np.random.default_rng(list(name.encode()))
    cshape = {"matmul22": (4, 5), "matmul12": (4, 5), "add_bias": (4,)}.get(name, shape)
    c = f64(rng.standard_normal(cshape))
    w = rng.standard_normal()

    def f(x):
        y = op(x, c)
        return de.mul(de.reduce_sum(de.mul(y, y)), w)

    for _ in range(5):
        x = rand_smooth_point(rng, f, shape)
        assert grad_check(f, x) < 1e-6, name


def test_grad_check_gather_and_concat():
    rng = np.random.default_rng(11)
    idx = np.array([0, 2, 2, 1])

    def f_rows(x):
        return de.reduce_sum(de.mul(de.take_rows(x, idx), de.take_rows(x, idx)))

    assert grad_check(f_rows, f64(rng.standard_normal((3, 2)))) < 1e-7

    pick = np.array([1, 0])

    def f_last(x):
        part = de.concat([x, de.tanh(x)])
        return de.reduce_sum(de.take_last(part, pick))

    assert grad_check(f_last, f64(rng.standard_normal((2, 3)))) < 1e-7


def test_grad_check_scalar_broadcast():
    rng = np.random.default_rng(13)
    v = f64(rng.standard_normal(4))

    def f(s):
        return de.reduce_sum(de.mul(de.mul(s, v), de.add(v, s)))

    assert grad_check(f, f64(0.7)) < 1e-8


# name -> (op, numpy forward, (a, b, g) -> cotangents of a and b before any sum)
BINARY_OPS = {
    "add": (de.add, np.add, lambda a, b, g: (g, g)),
    "sub": (de.sub, np.subtract, lambda a, b, g: (g, -g)),
    "mul": (de.mul, np.multiply, lambda a, b, g: (g * b, g * a)),
    "maximum": (de.maximum, np.maximum, lambda a, b, g: (g * (a >= b), g * (a < b))),
    "minimum": (de.minimum, np.minimum, lambda a, b, g: (g * (a <= b), g * (a > b))),
}


@pytest.mark.parametrize("form", ["scalar_left", "scalar_right", "number"])
@pytest.mark.parametrize("name", BINARY_OPS)
def test_binary_op_with_scalar_operand(name, form):
    """A 0-d operand on either side, or a python number as ``b``: the forward
    is numpy's, a 0-d operand's gradient is the summed cotangent, a number
    gets none, and each tensor operand passes grad_check."""
    op, ref, cotangents = BINARY_OPS[name]
    rng = np.random.default_rng([len(name), len(form)])
    v, s = rng.standard_normal((3, 2)), float(rng.standard_normal())
    w = f64(rng.standard_normal((3, 2)))
    a_np, b_np = (s, v) if form == "scalar_left" else (v, s)
    a = f64(a_np)
    b = s if form == "number" else f64(b_np)

    def loss_of(x, y):
        return de.reduce_sum(de.mul(op(x, y), w))

    assert kink_margin(lambda x: loss_of(x, b), a) > 1e-3
    with Tape() as tape:
        out = op(a, b)
        loss = de.reduce_sum(de.mul(out, w))
    assert len(tape) == 3  # one record for the op
    assert np.array_equal(out.data, ref(a_np, b_np))
    inputs, bw = tape._nodes[0][1:3]  # read before backward releases it
    grads = backward(tape, loss)
    ga, gb = cotangents(*np.broadcast_arrays(a_np, b_np), w.data)
    assert np.array_equal(grads[a], ga.sum() if form == "scalar_left" else ga)
    assert grad_check(lambda x: loss_of(x, b), a) < 1e-8
    if form == "number":
        assert inputs == (a,) and len(bw(w.data)) == 1
    else:
        assert np.array_equal(grads[b], gb.sum() if form == "scalar_right" else gb)
        assert grad_check(lambda y: loss_of(a, y), b) < 1e-8


def test_backward_is_linear():
    rng = np.random.default_rng(17)
    x = f64(rng.standard_normal(6))

    def run(a, b):
        with Tape() as tape:
            f = de.reduce_sum(de.mul(de.sigmoid(x), x))
            g = de.reduce_sum(de.tanh(x))
            loss = de.add(de.mul(f, a), de.mul(g, b))
        return backward(tape, loss)[x]

    ga = run(1.0, 0.0)
    gb = run(0.0, 1.0)
    gmix = run(2.5, -1.5)
    np.testing.assert_allclose(gmix, 2.5 * ga - 1.5 * gb, rtol=1e-12)


def test_backward_deterministic_repeat():
    rng = np.random.default_rng(19)
    x = f64(rng.standard_normal((4, 3)))
    w = f64(rng.standard_normal((3, 2)))

    def run():
        with Tape() as tape:
            h = de.tanh(de.matmul(x, w))
            loss = de.reduce_mean(de.mul(h, h))
        g = backward(tape, loss)
        return g[x].copy(), g[w].copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_eval_without_tape_records_nothing():
    with Tape() as outer:
        pass
    de.sigmoid(f64(np.zeros(3)))
    assert len(outer) == 0


def test_kink_margin_reports_distance():
    x = f64([0.3, -0.2])
    m = kink_margin(lambda t: de.reduce_sum(de.maximum(t, 0.0)), x)
    assert m == pytest.approx(0.2)


def test_kink_margin_sees_through_tapes_that_f_opens():
    x = f64([1e-12, 0.5])

    def bare(t):
        return de.reduce_sum(de.maximum(t, 0.0))

    def taped(t):
        with Tape():
            return bare(t)

    assert kink_margin(bare, x) == 1e-12
    assert kink_margin(taped, x) == 1e-12
    # an open call sees what a nested call sees, and the nested call only its own
    inner = []

    def nested(t):
        inner.append(kink_margin(bare, de.mul(t, 4.0)))
        return de.maximum(t, 0.25)

    assert kink_margin(nested, x) == pytest.approx(4e-12)
    assert inner == [pytest.approx(4e-12)]


def test_kink_margin_closes_when_f_raises():
    def boom(t):
        de.maximum(t, 0.0)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        kink_margin(boom, f64([0.1]))
    assert de._KINK_MARGINS == []


def test_adam_zero_grad_is_identity():
    p = {"w": f64([1.0, -2.0])}
    st = AdamState(lr=0.1, l2=0.0)
    out = adam_step(st, p, {"w": np.zeros(2)})
    np.testing.assert_array_equal(out["w"].data, p["w"].data)


def test_adam_first_step_size_is_lr():
    p = {"w": f64([1.0])}
    st = AdamState(lr=1e-3, l2=0.0)
    out = adam_step(st, p, {"w": np.array([0.5])})
    # first step: m_hat = g, v_hat = g^2, so the move is lr * sign(g) (up to eps)
    assert out["w"].item() == pytest.approx(1.0 - 1e-3, abs=1e-9)


def test_adam_l2_pulls_toward_zero():
    p = {"w": f64([2.0])}
    st = AdamState(lr=1e-2, l2=0.1)
    out = adam_step(st, p, {"w": np.zeros(1)})
    assert out["w"].item() < 2.0


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(23)
        p = {"w": f64(rng.standard_normal(4))}
        st = AdamState(lr=3e-3, l2=1e-4)
        for _ in range(5):
            p = adam_step(st, p, {"w": rng.standard_normal(4)})
        return p["w"].data

    assert np.array_equal(run(), run())


def test_adam_rejects_bad_grad_shape():
    p = {"w": f64(np.zeros(3))}
    with pytest.raises(ShapeError, match="w"):
        adam_step(AdamState(), p, {"w": np.zeros(4)})


def reference_adam(state, params, grads):
    """The update written as whole-array expressions, one new array each."""
    state.step += 1
    c1, c2 = 1.0 - state.beta1**state.step, 1.0 - state.beta2**state.step
    out = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=p.dtype)
        if state.l2:
            g = g + state.l2 * p.data
        m = state.m.get(name, np.zeros_like(p.data))
        v = state.v.get(name, np.zeros_like(p.data))
        state.m[name] = m = state.beta1 * m + (1.0 - state.beta1) * g
        state.v[name] = v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        delta = state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        out[name] = Tensor._wrap(p.data - delta)
    return out


@pytest.mark.parametrize("l2", [0.0, 1e-4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_is_bit_identical_and_leaves_gradients_alone(dtype, l2):
    rng = np.random.default_rng(61)
    params = {n: Tensor._wrap(rng.standard_normal(s).astype(dtype)) for n, s in
              (("w", (3, 4)), ("b", (4,)), ("s", ()))}
    ref_params, states = dict(params), [AdamState(lr=1e-2, l2=l2), AdamState(lr=1e-2, l2=l2)]
    for _ in range(3):
        shared = rng.standard_normal((3, 4)).astype(dtype)
        # "w" and "b"'s source share one array, as ``add``'s backward may hand out
        grads = {"w": shared, "b": shared[0], "s": np.asarray(rng.standard_normal(), dtype)}
        kept = {n: np.array(g) for n, g in grads.items()}
        params = adam_step(states[0], params, grads)
        ref_params = reference_adam(states[1], ref_params, grads)
        for n in params:
            assert params[n].data.tobytes() == ref_params[n].data.tobytes(), n
            assert np.array_equal(grads[n], kept[n]), n
            for moments in ("m", "v"):
                a, b = getattr(states[0], moments)[n], getattr(states[1], moments)[n]
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("one_row", [False, True], ids=["default_blocks", "one_row_blocks"])
@pytest.mark.parametrize("l2", [0.0, 1e-4])
def test_adam_blocks_equal_the_whole_array_formula(l2, one_row, monkeypatch):
    # "big" [300, 512] float32 is 600 KB, more than one default block
    if one_row:
        monkeypatch.setattr(de, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(89)
    shapes = {"big": (300, 512), "w": (7, 3), "b": (3,), "s": ()}
    params = {n: Tensor._wrap(rng.standard_normal(s).astype(np.float32)) for n, s in shapes.items()}
    params["w2"] = params["w"]
    ref_params, states = dict(params), [AdamState(lr=1e-2, l2=l2), AdamState(lr=1e-2, l2=l2)]
    for _ in range(3):
        grads = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
        grads["w2"] = grads["w"]  # two names share one gradient array
        kept = np.array(grads["w"])
        params = adam_step(states[0], params, grads)
        ref_params = reference_adam(states[1], ref_params, grads)
        assert np.array_equal(grads["w"], kept)
        for n in params:
            assert params[n].data.tobytes() == ref_params[n].data.tobytes(), n
            for moments in ("m", "v"):
                a, b = getattr(states[0], moments)[n], getattr(states[1], moments)[n]
                assert a.tobytes() == b.tobytes(), (n, moments)


# ---------------------------------------------------------------------------
# fused LSTM cell

LSTM_NAMES = ("x", "h", "c", "W", "b")


def lstm_inputs(rng, batch=4, n_in=3, hidden=5):
    return {
        "x": f64(rng.standard_normal((batch, n_in))),
        "h": f64(rng.standard_normal((batch, hidden))),
        "c": f64(rng.standard_normal((batch, hidden))),
        "W": f64(0.5 * rng.standard_normal((n_in + hidden, 4 * hidden))),
        "b": f64(0.5 * rng.standard_normal(4 * hidden)),
    }


def reference_lstm(x, h, c, W, b, alive=None):
    """The same step composed from primitive ops, freezing rows with 0/1
    float masks."""
    nH = h.shape[1]
    z = de.add_bias(de.matmul(de.concat([x, h]), W), b)
    i = de.sigmoid(de.slice_last(z, 0, nH))
    f = de.sigmoid(de.slice_last(z, nH, 2 * nH))
    g = de.tanh(de.slice_last(z, 2 * nH, 3 * nH))
    o = de.sigmoid(de.slice_last(z, 3 * nH, 4 * nH))
    c2 = de.add(de.mul(f, c), de.mul(i, g))
    h2 = de.mul(o, de.tanh(c2))
    if alive is not None:
        kp = f64(alive.astype(float))
        dp = f64((~alive).astype(float))
        h2 = de.add(de.scale_rows(h2, kp), de.scale_rows(h, dp))
        c2 = de.add(de.scale_rows(c2, kp), de.scale_rows(c, dp))
    return h2, c2


def lstm_loss(h2, c2, wh, wc, use=("h2", "c2")):
    terms = []
    if "h2" in use:
        terms.append(de.reduce_sum(de.mul(h2, wh)))
    if "c2" in use:
        terms.append(de.reduce_sum(de.mul(c2, wc)))
    return terms[0] if len(terms) == 1 else de.add(*terms)


@pytest.mark.parametrize("masked", [False, True], ids=["all_alive", "frozen_rows"])
@pytest.mark.parametrize("wrt", LSTM_NAMES)
def test_lstm_cell_grad_check(wrt, masked):
    rng = np.random.default_rng([len(wrt), ord(wrt[0]), masked])
    args = lstm_inputs(rng)
    alive = np.array([True, False, True, False]) if masked else None
    wh = f64(rng.standard_normal((4, 5)))
    wc = f64(rng.standard_normal((4, 5)))

    def f(t):
        h2, c2 = de.lstm_cell(**dict(args, **{wrt: t}), alive=alive)
        return lstm_loss(h2, c2, wh, wc)

    assert grad_check(f, args[wrt]) < 1e-6


@pytest.mark.parametrize("use", [("h2", "c2"), ("h2",), ("c2",)], ids="+".join)
@pytest.mark.parametrize("masked", [False, True], ids=["all_alive", "frozen_rows"])
def test_lstm_cell_agrees_with_composite_cell(masked, use):
    rng = np.random.default_rng(29)
    args = lstm_inputs(rng, batch=6)
    alive = np.array([True, False, True, True, False, True]) if masked else None
    wh = f64(rng.standard_normal((6, 5)))
    wc = f64(rng.standard_normal((6, 5)))
    results = []
    for cell in (de.lstm_cell, reference_lstm):
        with Tape() as tape:
            h2, c2 = cell(**args, alive=alive)
            loss = lstm_loss(h2, c2, wh, wc, use)
        grads = backward(tape, loss)
        results.append((h2.data, c2.data, [grads[args[n]] for n in LSTM_NAMES]))
    (h_new, c_new, g_new), (h_ref, c_ref, g_ref) = results
    np.testing.assert_allclose(h_new, h_ref, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(c_new, c_ref, rtol=1e-12, atol=1e-14)
    for name, a, b in zip(LSTM_NAMES, g_new, g_ref):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14, err_msg=name)


@pytest.mark.parametrize(
    "alive", [[True, False, False, True], [False] * 4], ids=["some", "all"]
)
def test_lstm_cell_frozen_rows_pass_through(alive):
    rng = np.random.default_rng(31)
    args = lstm_inputs(rng)
    alive = np.array(alive)
    gh = rng.standard_normal((4, 5))
    gc = rng.standard_normal((4, 5))
    with Tape() as tape:
        h2, c2 = de.lstm_cell(**args, alive=alive)
        loss = lstm_loss(h2, c2, f64(gh), f64(gc))
    grads = backward(tape, loss)
    np.testing.assert_array_equal(h2.data[~alive], args["h"].data[~alive])
    np.testing.assert_array_equal(c2.data[~alive], args["c"].data[~alive])
    np.testing.assert_array_equal(grads[args["h"]][~alive], gh[~alive])
    np.testing.assert_array_equal(grads[args["c"]][~alive], gc[~alive])
    np.testing.assert_array_equal(grads[args["x"]][~alive], 0.0)
    if not alive.any():
        np.testing.assert_array_equal(grads[args["W"]], 0.0)
        np.testing.assert_array_equal(grads[args["b"]], 0.0)


# a regroup that reads rows 0 and 2 twice and skips row 3
PARENT = np.array([2, 0, 0, 1, 2, 4])
PARENT_CASES = [
    (None, ("h2", "c2")), (None, ("h2",)), (None, ("c2",)),
    (np.array([True, False, True, True, False, True]), ("h2", "c2")),
    (np.array([True, False, True, True, False, True]), ("h2",)),
    (np.array([False, True, True, False, True, True]), ("c2",)),
]


@pytest.mark.parametrize(
    "alive,use", PARENT_CASES,
    ids=["+".join(u) + ("" if a is None else "-frozen_rows") for a, u in PARENT_CASES],
)
def test_lstm_cell_parent_equals_a_gather_then_the_step(alive, use):
    rng = np.random.default_rng(59)
    args = lstm_inputs(rng, batch=5)
    args["x"] = f64(rng.standard_normal((6, 3)))
    wh, wc = f64(rng.standard_normal((6, 5))), f64(rng.standard_normal((6, 5)))
    results = []
    for fold in (True, False):
        with Tape() as tape:
            if fold:
                h2, c2 = de.lstm_cell(**args, alive=alive, parent=PARENT)
            else:
                h, c = de.gather_rows((args["h"], args["c"]), PARENT)
                h2, c2 = de.lstm_cell(args["x"], h, c, args["W"], args["b"], alive)
            loss = lstm_loss(h2, c2, wh, wc, use)
        assert len(tape) == (1 if fold else 2) + len(use) * 2 + (len(use) - 1)
        grads = backward(tape, loss)
        results.append([h2.data, c2.data] + [grads[args[n]] for n in LSTM_NAMES])
    for name, a, b in zip(("h2", "c2") + LSTM_NAMES, *results):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("masked", [False, True], ids=["all_alive", "frozen_rows"])
@pytest.mark.parametrize("wrt", ["h", "c"])
def test_lstm_cell_parent_grad_check(wrt, masked):
    rng = np.random.default_rng([len(wrt), ord(wrt[0]), masked, 1])
    args = lstm_inputs(rng, batch=5)
    args["x"] = f64(rng.standard_normal((6, 3)))
    alive = np.array([True, False, True, True, False, True]) if masked else None
    wh, wc = f64(rng.standard_normal((6, 5))), f64(rng.standard_normal((6, 5)))

    def f(t):
        h2, c2 = de.lstm_cell(**dict(args, **{wrt: t}), alive=alive, parent=PARENT)
        return lstm_loss(h2, c2, wh, wc)

    assert grad_check(f, args[wrt]) < 1e-6


LSTM_BLOCK_CASES = {
    "all_alive": {},
    "frozen_rows": {"alive": np.array([True, False, True, True, False, True])},
    "repeated_parents": {"parent": PARENT},
    "repeated_parents-frozen_rows": {
        "parent": PARENT, "alive": np.array([False, True, True, False, True, True])
    },
}


@pytest.mark.parametrize("use", [("h2", "c2"), ("c2",), ("h2",)], ids=["both", "gh_none", "gc_none"])
@pytest.mark.parametrize("case", list(LSTM_BLOCK_CASES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_cell_one_row_blocks_equal_the_default_bit_for_bit(dtype, case, use, monkeypatch):
    rng = np.random.default_rng(97)
    kwargs = LSTM_BLOCK_CASES[case]
    args = {k: Tensor._wrap(v.data.astype(dtype)) for k, v in lstm_inputs(rng, batch=5).items()}
    if "parent" not in kwargs:
        args["h"], args["c"] = (Tensor._wrap(rng.standard_normal((6, 5)).astype(dtype)) for _ in "hc")
    args["x"] = Tensor._wrap(rng.standard_normal((6, 3)).astype(dtype))
    wh, wc = (Tensor._wrap(rng.standard_normal((6, 5)).astype(dtype)) for _ in "hc")
    results = []
    for block_bytes in (de._BLOCK_BYTES, 1):  # the default is one block here, then a block per row
        monkeypatch.setattr(de, "_BLOCK_BYTES", block_bytes)
        with Tape() as tape:
            h2, c2 = de.lstm_cell(**args, **kwargs)
            loss = lstm_loss(h2, c2, wh, wc, use)
        grads = backward(tape, loss)
        results.append([h2.data, c2.data] + [grads[args[n]] for n in LSTM_NAMES])
    for name, a, b in zip(("h2", "c2") + LSTM_NAMES, *results):
        assert a.dtype == dtype and a.tobytes() == b.tobytes(), name


def test_lstm_cell_identity_parent_is_no_parent():
    args = lstm_inputs(np.random.default_rng(67))
    plain = de.lstm_cell(**args)
    same = de.lstm_cell(**args, parent=np.arange(4))
    assert all(a.data.tobytes() == b.data.tobytes() for a, b in zip(plain, same))
    with pytest.raises(ShapeError, match="lstm_cell"):
        de.lstm_cell(**args, parent=np.array([0, 1, 2]))
    with pytest.raises(IndexError):
        de.lstm_cell(**args, parent=np.array([0, 1, 2, 4]))


def test_lstm_cell_is_one_tape_node():
    args = lstm_inputs(np.random.default_rng(37))
    with Tape() as tape:
        de.lstm_cell(**args)
    assert len(tape) == 1
    with Tape() as tape:
        de.lstm_cell(**args, alive=np.array([True, False, True, True]))
    assert len(tape) == 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True], ids=["all_alive", "frozen_rows"])
def test_lstm_cell_record_keeps_only_its_gates_and_outputs(masked, dtype):
    # tracemalloc sees numpy's buffers: after one taped step, what the tape
    # and the outputs hold is h2, c2 and the live rows' [n_live, 4H] gates,
    # plus 4 KiB for the record's tuple, tensors and closures. [x, h] alone
    # is 12 KiB in float32 here, and tanh(c2) 8 KiB
    rng = np.random.default_rng(47)
    args = {k: Tensor._wrap(v.data.astype(dtype)) for k, v in
            lstm_inputs(rng, batch=64, n_in=16, hidden=32).items()}
    alive = rng.random(64) < 0.7 if masked else None
    n_live = 64 if alive is None else int(alive.sum())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            h2, c2 = de.lstm_cell(**args, alive=alive)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    gates = n_live * 4 * 32 * np.dtype(dtype).itemsize
    assert len(tape) == 1
    assert grown <= h2.data.nbytes + c2.data.nbytes + gates + 4096


def test_backward_releases_each_record_and_runs_once():
    x = f64([0.5, -1.0, 2.0])
    with Tape() as tape:
        loss = de.reduce_sum(de.mul(de.tanh(x), x))
    g = backward(tape, loss)
    assert len(tape) == 3  # every record is still counted
    assert tape._nodes == [None, None, None]
    np.testing.assert_allclose(g[x], np.tanh(x.data) + (1 - np.tanh(x.data) ** 2) * x.data)
    with pytest.raises(DiffError, match="released by an earlier backward"):
        backward(tape, loss)


@pytest.mark.parametrize("out", ["h2", "c2"])
def test_two_output_node_backward_from_either_output(out):
    # the loss reaches only one output; the other's cotangent reads as zero
    args = lstm_inputs(np.random.default_rng(41))
    with Tape() as tape:
        h2, c2 = de.lstm_cell(**args)
        loss = de.reduce_sum(h2 if out == "h2" else c2)
    assert len(tape) == 2
    grads = backward(tape, loss)
    for name in LSTM_NAMES:
        assert args[name] in grads
        assert np.all(np.isfinite(grads[args[name]]))
    # c2 = f*c + i*g, so with only c2 in the loss dL/dc is exactly f
    if out == "c2":
        z = np.concatenate([args["x"].data, args["h"].data], 1) @ args["W"].data
        f = 1.0 / (1.0 + np.exp(-(z + args["b"].data)[:, 5:10]))
        np.testing.assert_allclose(grads[args["c"]], f, rtol=1e-12)


def test_two_output_node_is_skipped_when_neither_output_is_used():
    args = lstm_inputs(np.random.default_rng(43))
    with Tape() as tape:
        de.lstm_cell(**args)
        loss = de.reduce_sum(args["x"])
    grads = backward(tape, loss)
    assert args["W"] not in grads and args["h"] not in grads


@pytest.mark.parametrize("bad", ["h", "c"])
def test_frozen_row_with_a_non_finite_state_leaves_the_other_output_finite(bad):
    # a frozen row hands back its h and c unchanged, so a non-finite h (c)
    # there makes only the h2 (c2) output non-finite
    args = lstm_inputs(np.random.default_rng(47))
    poisoned = args[bad].data.copy()
    poisoned[1, 2] = np.inf
    args[bad] = f64(poisoned)
    with np.errstate(all="ignore"):
        h2, c2 = de.lstm_cell(**args, alive=np.array([True, False, True, True]))
    assert np.isfinite(c2.data if bad == "h" else h2.data).all()


def test_lstm_cell_rejects_bad_shapes():
    args = lstm_inputs(np.random.default_rng(53))
    with pytest.raises(ShapeError, match="lstm_cell"):
        de.lstm_cell(**dict(args, W=f64(np.zeros((7, 20)))))
    with pytest.raises(ShapeError, match="lstm_cell"):
        de.lstm_cell(**dict(args, c=f64(np.zeros((4, 6)))))
    with pytest.raises(ShapeError, match="alive"):
        de.lstm_cell(**args, alive=np.ones(3, dtype=bool))
    with pytest.raises(ShapeError, match="dtype"):
        de.lstm_cell(**dict(args, b=tensor(np.zeros(20), dtype=np.float32)))


# ---------------------------------------------------------------------------
# categorical


def categorical_inputs(rng, dtype=np.float64, dead_at_start=False):
    # 5 rows, 3 steps over 4 symbols; rows end at different steps
    logits = [tensor(rng.standard_normal((5, 4)), dtype=dtype) for _ in range(3)]
    symbols = rng.integers(0, 4, size=(5, 3))
    alive = np.arange(3) < np.array([3, 1, 2, 3, 0 if dead_at_start else 1])[:, None]
    return logits, symbols, alive


def composite_categorical(logits, symbols, alive):
    """What ``categorical`` fuses: per step log_softmax/take_last and
    softmax/mul/sum_last, a 0/1 mask on each step with a dead row, added up in
    step order. Also returns the unmasked per-step terms."""
    logp = ent = None
    steps = []
    for t, z in enumerate(logits):
        lp = de.log_softmax(z)
        terms = [de.take_last(lp, symbols[:, t])]
        terms.append(de.mul(de.sum_last(de.mul(de.softmax(z), lp)), -1.0))
        steps.append([term.data for term in terms])
        if not alive[:, t].all():
            mask = Tensor._wrap(alive[:, t].astype(z.dtype))
            terms = [de.mul(term, mask) for term in terms]
        logp = terms[0] if logp is None else de.add(logp, terms[0])
        ent = terms[1] if ent is None else de.add(ent, terms[1])
    step_logp, step_ent = (np.stack(s, axis=1) for s in zip(*steps))
    return logp, ent, step_logp, step_ent


def categorical_loss(logp, ent, w, which):
    parts = {"logp": logp, "entropy": ent}
    terms = [de.reduce_sum(de.mul(parts[k], w)) for k in ("logp", "entropy") if which in (k, "both")]
    return terms[0] if len(terms) == 1 else de.add(terms[0], de.mul(terms[1], 0.3))


@pytest.mark.parametrize("which", ["both", "logp", "entropy"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dead_at_start", [False, True])
def test_categorical_matches_the_composite_bit_for_bit(which, dtype, dead_at_start):
    rng = np.random.default_rng([7, int(dead_at_start)])
    logits, symbols, alive = categorical_inputs(rng, dtype, dead_at_start)
    w = tensor(rng.standard_normal(5), dtype=dtype)
    got = []
    for op in (de.categorical, composite_categorical):
        with Tape() as tape:
            logp, ent, step_logp, step_ent = op(logits, symbols, alive)
            loss = categorical_loss(logp, ent, w, which)
        grads = backward(tape, loss)
        arrays = [logp.data, ent.data, step_logp, step_ent] + [grads[z] for z in logits]
        got.append([(a.dtype, a.shape, a.tobytes()) for a in arrays])
    assert got[0] == got[1]


@pytest.mark.parametrize("which", ["both", "logp", "entropy"])
def test_grad_check_categorical(which):
    rng = np.random.default_rng(59)
    logits, symbols, alive = categorical_inputs(rng)
    w = f64(rng.standard_normal(5))
    for k in range(len(logits)):

        def f(x):
            logp, ent, _, _ = de.categorical(logits[:k] + [x] + logits[k + 1 :], symbols, alive)
            return categorical_loss(logp, ent, w, which)

        assert grad_check(f, logits[k]) < 1e-6, k


def test_categorical_is_one_tape_node():
    logits, symbols, alive = categorical_inputs(np.random.default_rng(61))
    with Tape() as tape:
        de.categorical(logits, symbols, alive)
    assert len(tape) == 1


def categorical_node_inputs(rng):
    # 6 rows, 3 steps over 4 symbols. Step 0 runs on 2 nodes and step 2 on 4,
    # rows repeating a node; step 1 is the identity; rows end at different
    # steps, one before its first
    nodes = [np.array([0, 0, 1, 1, 0, 1]), np.arange(6), np.array([3, 0, 2, 2, 1, 0])]
    logits = [f64(rng.standard_normal((m.max() + 1, 4))) for m in nodes]
    symbols = rng.integers(0, 4, size=(6, 3))
    alive = np.arange(3) < np.array([3, 1, 2, 3, 0, 2])[:, None]
    return logits, nodes, symbols, alive


def rows_categorical(logits, symbols, alive, nodes):
    """``categorical`` of the rows ``gather_rows`` takes from each step's node
    logits, skipping an identity map."""
    rows = [
        z if np.array_equal(m, np.arange(len(m))) else de.gather_rows((z,), m)[0]
        for z, m in zip(logits, nodes)
    ]
    return de.categorical(rows, symbols, alive)


@pytest.mark.parametrize("which", ["both", "logp", "entropy"])
@pytest.mark.parametrize("case", ["nodes", "identity", "no_nodes"])
def test_categorical_on_node_logits_matches_gathered_rows_bit_for_bit(which, case):
    rng = np.random.default_rng([73, len(case), len(which)])
    logits, nodes, symbols, alive = categorical_node_inputs(rng)
    if case != "nodes":  # every map the identity
        logits = [f64(rng.standard_normal((6, 4))) for _ in nodes]
        nodes = [np.arange(6)] * 3
    w = f64(rng.standard_normal(6))
    got = []
    for op in (de.categorical, rows_categorical):
        with Tape() as tape:
            maps = None if case == "no_nodes" and op is de.categorical else nodes
            logp, ent, step_logp, step_ent = op(logits, symbols, alive, maps)
            loss = categorical_loss(logp, ent, w, which)
        grads = backward(tape, loss)
        arrays = [logp.data, ent.data, step_logp, step_ent] + [grads[z] for z in logits]
        got.append([(a.dtype, a.shape, a.tobytes()) for a in arrays])
    assert got[0] == got[1]
    # the gathers run inside the one record
    with Tape() as tape:
        de.categorical(logits, symbols, alive, nodes)
    assert [op for *_, op in tape._nodes] == ["categorical"]


def test_categorical_rejects_bad_shapes():
    logits, symbols, alive = categorical_inputs(np.random.default_rng(67))
    bad = [
        ([], symbols[:, :0], alive[:, :0]),
        (logits[:2], symbols, alive),
        (logits[:2] + [f64(np.zeros((5, 3)))], symbols, alive),
        (logits[:2] + [tensor(logits[2].data, dtype=np.float32)], symbols, alive),
        ([f64(np.zeros(4))] * 3, symbols, alive),
        (logits, symbols[:4], alive),
        (logits, symbols, alive[:, :2]),
    ]
    logits, nodes, symbols, alive = categorical_node_inputs(np.random.default_rng(79))
    bad += [
        (logits, symbols, alive, nodes[:2]),  # a map short
        (logits, symbols, alive, nodes[:2] + [nodes[2][:5]]),  # a map not B long
        (logits, symbols, alive, nodes[:2] + [nodes[2][:, None]]),  # a map not 1-d
        (logits, symbols, alive),  # node logits read as rows
    ]
    for args in bad:
        with pytest.raises(ShapeError, match="categorical"):
            de.categorical(*args)
    with pytest.raises(IndexError):  # a node past the last
        de.categorical(logits, symbols, alive, nodes[:2] + [nodes[2] + 1])


# inputs made with no tape active, so each call below records only its op
_M = f64(np.linspace(0.1, 1.2, 6).reshape(3, 2))
_V, _S = f64([0.5, 2.0]), f64([0.3, 0.6, 0.9])
_STACK = stack_push(StackState.empty(2, batch=3, dtype=np.float64), _M, _S)
_LSTM = lstm_inputs(np.random.default_rng(71), batch=3, n_in=2, hidden=2)
_DRAWS = (np.zeros((3, 2), int), np.ones((3, 2), bool))
# public op -> the name its record carries, and a call of it
RECORD_NAMES = {
    "add": ("add", lambda: de.add(_M, _M)),
    "sub": ("sub", lambda: de.sub(_M, 1.0)),
    "mul": ("mul", lambda: de.mul(_M, _M)),
    "maximum": ("maximum", lambda: de.maximum(_M, 0.5)),
    "minimum": ("minimum", lambda: de.minimum(_M, 0.5)),
    "sigmoid": ("sigmoid", lambda: de.sigmoid(_M)),
    "tanh": ("tanh", lambda: de.tanh(_M)),
    "exp": ("exp", lambda: de.exp(_M)),
    "log": ("log", lambda: de.log(_M)),
    "matmul": ("matmul", lambda: de.matmul(_M, _V)),
    "add_bias": ("add_bias", lambda: de.add_bias(_M, _V)),
    "scale_rows": ("scale_rows", lambda: de.scale_rows(_M, _S)),
    "take_rows": ("gather_rows", lambda: de.take_rows(_M, [2, 0])),
    "gather_rows": ("gather_rows", lambda: de.gather_rows((_M, _S), [1, 1])),
    "take_last": ("take_last", lambda: de.take_last(_M, np.array([0, 1, 1]))),
    "concat": ("concat", lambda: de.concat((_M, _M))),
    "slice_last": ("slice_last", lambda: de.slice_last(_M, 0, 1)),
    "lstm_cell": ("lstm_cell", lambda: de.lstm_cell(**_LSTM)),
    "categorical": ("categorical", lambda: de.categorical((_M, _M), *_DRAWS)),
    "reduce_sum": ("reduce_sum", lambda: de.reduce_sum(_M)),
    "reduce_mean": ("reduce_mean", lambda: de.reduce_mean(_M)),
    "sum_last": ("sum_last", lambda: de.sum_last(_M)),
    "softmax": ("softmax", lambda: de.softmax(_M)),
    "log_softmax": ("log_softmax", lambda: de.log_softmax(_M)),
    "stack_push": ("stack_push", lambda: stack_push(_STACK, _M, _S)),
    "stack_pop": ("stack_step", lambda: stack_pop(_STACK, _S)),
    "stack_read": ("stack_step", lambda: stack_read(_STACK, _S)),
    "stack_step": ("stack_step", lambda: stack_step(_STACK, StackDirectives(_M, _S, _S, _S))),
    "total_strength": ("sum_last", lambda: total_strength(_STACK)),
}


@pytest.mark.parametrize("called", list(RECORD_NAMES))
def test_each_public_op_records_its_name(called):
    # tools count a tape by the name in each record's last slot
    name, op = RECORD_NAMES[called]
    with Tape() as tape:
        op()
    assert [record[-1] for record in tape._nodes] == [name]
