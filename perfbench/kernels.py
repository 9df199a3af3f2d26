"""Fixed-shape kernel timings through eclab's public API, and the matmul peak
they are quoted against.

A taped kernel is timed as a graph ending in ``sum(kernel(...) * C)`` (a
dense cotangent, so backward takes the same BLAS path as in training), minus
the same ``sum(leaf * C)`` tail on a leaf of the kernel's output shape. Each
time is the median of repeats.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

DTYPE = np.float32  # the default (non-deterministic) mode users train in
MIN_REPS = 5
MAX_REPS = 2000
BUDGET_S = 0.25  # per timed graph


def matmul_peak_gflops(dtype, n):
    """Best GFLOP/s of a square ``n x n`` matmul in ``dtype``."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal((n, n)).astype(dtype)
    a @ b
    best = float("inf")
    for _ in range(MIN_REPS):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best / 1e9


def _taped(de, build, tails):
    """Median (forward, backward) seconds of ``sum(out * tail)`` over the
    outputs of ``build()``."""
    fwd, bwd = [], []
    spent = 0.0
    while len(fwd) < MIN_REPS or (spent < BUDGET_S and len(fwd) < MAX_REPS):
        start = time.perf_counter()
        with de.Tape() as tape:
            loss = None
            for out, tail in zip(build(), tails):
                term = de.reduce_sum(de.mul(out, tail))
                loss = term if loss is None else de.add(loss, term)
        mid = time.perf_counter()
        de.backward(tape, loss)
        end = time.perf_counter()
        fwd.append(mid - start)
        bwd.append(end - mid)
        spent += end - start
    return statistics.median(fwd), statistics.median(bwd)


def _kernel(de, build, out_shapes):
    """(forward, backward) seconds of ``build`` net of the loss tail."""
    tails = [de.tensor(np.full(shape, 0.5), dtype=DTYPE) for shape in out_shapes]
    leaves = [de.zeros(shape, dtype=DTYPE) for shape in out_shapes]
    f, b = _taped(de, build, tails)
    f0, b0 = _taped(de, lambda: leaves, tails)
    return max(f - f0, 0.0), max(b - b0, 0.0)


def _rand(de, rng, shape, lo=-1.0, hi=1.0):
    return de.tensor(rng.uniform(lo, hi, shape), dtype=DTYPE)


def kernel_metrics(eclab, quick=False):
    de, agents, ns = eclab.diffengine, eclab.agents, eclab.neural_stack
    rng = np.random.default_rng(0)
    out = {}
    n_peak = 256 if quick else 2048
    peak32 = matmul_peak_gflops(np.float32, n_peak)
    out["machine.matmul_peak_gflops.f32"] = (peak32, "GFLOP/s")
    out["machine.matmul_peak_gflops.f64"] = (matmul_peak_gflops(np.float64, n_peak), "GFLOP/s")

    # the W2 (receiver controller) LSTM matmul at batch 1024, hidden 512
    m, k, n = (64, 48, 128) if quick else (1024, 544, 2048)
    a, b = _rand(de, rng, (m, k)), _rand(de, rng, (k, n))
    fwd, bwd = _kernel(de, lambda: [de.matmul(a, b)], [(m, n)])
    flops = 2.0 * m * k * n
    out["diffengine.matmul.gflops"] = (flops / fwd / 1e9, "GFLOP/s")
    out["diffengine.matmul.peak_share"] = (flops / fwd / 1e9 / peak32, "ratio")
    out["diffengine.matmul_bwd.gflops"] = (2 * flops / bwd / 1e9, "GFLOP/s")
    out["diffengine.matmul_bwd.peak_share"] = (2 * flops / bwd / 1e9 / peak32, "ratio")

    x, y = _rand(de, rng, (256, 64)), _rand(de, rng, (256, 64))
    fwd, bwd = _kernel(de, lambda: [de.add(x, y)], [(256, 64)])
    out["diffengine.op_overhead_us"] = ((fwd + bwd) * 1e6, "us")

    # one LSTM step with a 32-wide input (the embedding), as the sender runs it
    for batch, hidden in ((256, 64), (1024, 512)):
        tag = f"b{batch}_h{hidden}"
        if quick:
            batch, hidden = batch // 16, hidden // 16
        cell = agents.LstmCell(rng, 32, hidden, DTYPE)
        x = _rand(de, rng, (batch, 32))
        h, c = _rand(de, rng, (batch, hidden)), _rand(de, rng, (batch, hidden))
        fwd, bwd = _kernel(de, lambda: cell.step(x, h, c), [(batch, hidden)] * 2)
        out[f"agents.lstm_step.fwd_s.{tag}"] = (fwd, "s")
        out[f"agents.lstm_step.bwd_s.{tag}"] = (bwd, "s")

    # one pop/push/read on a batch of 256 stacks of width 64 that end at depth d
    batch, width = (16, 8) if quick else (256, 64)
    for depth in (1, 4, 8):
        state = ns.StackState.empty(width, batch=batch, dtype=DTYPE)
        for _ in range(depth - 1):
            state = ns.stack_push(state, _rand(de, rng, (batch, width)), _rand(de, rng, (batch,), 0.5, 1.5))
        directives = ns.StackDirectives(
            v=_rand(de, rng, (batch, width)),
            u=_rand(de, rng, (batch,), 0.0, 0.4),
            d=_rand(de, rng, (batch,), 0.5, 1.5),
            r=_rand(de, rng, (batch,), 0.5, 2.0),
        )
        fwd, bwd = _kernel(de, lambda: [ns.stack_step(state, directives)[1]], [(batch, width)])
        out[f"neural_stack.stack_step.fwd_s.d{depth}"] = (fwd, "s")
        out[f"neural_stack.stack_step.bwd_s.d{depth}"] = (bwd, "s")
    return out
