"""Traced measurement: the same workload run in-process with spans around the
public functions at each module boundary, recorded from outside the package.

A span is (name, start, end, parent). Spans stay in memory; each carries the
root it runs under: ``train`` (a training iteration: play_batch, Adam, the
parameter reload and the KL controller), ``eval`` (an evaluation point:
ComAcc, mean log prior, the metrics.csv row) or ``setup``. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

# Top-level calls made by ``runner.run`` and the root each one opens.
RUNNER_CALLS = {
    "build_space": "setup",
    "split": "setup",
    "build_agents": "setup",
    "play_batch": "train",
    "adam_step": "train",
    "load_parameters": "train",
    "rewo_update": "train",
    "comacc": "eval",
    "mean_log_prior": "eval",
    "append_metrics": "eval",
}


class Span:
    __slots__ = ("name", "parent", "root", "start", "end", "child_s", "info")

    def __init__(self, name, parent, root):
        self.name = name
        self.parent = parent
        self.root = root
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Wraps attributes of modules and classes; ``restore`` undoes it."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def wrap(self, owner, attr, name, root=None, info=None):
        """Record a span around ``owner.attr``. ``root`` names the root the
        call opens when made directly under ``runner.run``; ``info(args,
        result)`` stores a count on the span."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            if parent is None or parent.name == "runner.run":
                span_root = root
            else:
                span_root = parent.root
            span = Span(name, parent, span_root)
            tracer._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if info is not None:
                span.info = info(args, result)
            tracer.spans.append(span)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


def instrument(tracer, eclab):
    """Put spans on every boundary the per-layer metrics read."""
    agents, game, runner = eclab.agents, eclab.game, eclab.runner
    tracer.wrap(runner, "run", "runner.run")
    for attr, root in RUNNER_CALLS.items():
        tracer.wrap(runner, attr, f"runner.{attr}", root=root)
    tracer.wrap(game, "backward", "game.backward", info=lambda args, _: len(args[0]))
    tracer.wrap(agents.Sender, "encode", "agents.sender_encode")
    tracer.wrap(
        agents.Sender,
        "emit",
        "agents.sender_emit",
        info=lambda _, out: (int(out.batch.lengths.sum()), out.batch.symbols.size, len(out.batch)),
    )
    tracer.wrap(agents.Receiver, "encode", "agents.receiver_encode")
    tracer.wrap(agents.Receiver, "reconstruct_logprob", "agents.reconstruct")
    tracer.wrap(agents.Receiver, "message_log_prior", "agents.prior")
    tracer.wrap(agents, "stack_step", "neural_stack.stack_step", info=lambda _, out: out[0].depth)


def run_in_process(eclab, workload, seed, out_dir, tracer=None):
    """One run of ``workload`` in this process, under ``tracer`` if given."""
    config = eclab.runner.resolve_preset(workload.preset, **workload.overrides, seed=seed)
    if tracer is not None:
        instrument(tracer, eclab)
    try:
        eclab.runner.run(config, out_dir=str(out_dir))
    finally:
        if tracer is not None:
            tracer.restore()


def layer_metrics(tracers, summaries):
    """Per-layer metrics from the spans of one or more traced runs: times are
    seconds per training iteration, per evaluation or per run as named."""
    spans = [s for t in tracers for s in t.spans]

    def pick(name, root=None):
        return [s for s in spans if s.name == name and (root is None or s.root == root)]

    def total(name, root=None):
        return sum(s.duration for s in pick(name, root))

    play = pick("runner.play_batch")
    n_iter = len(play)
    n_eval = len(pick("runner.append_metrics"))
    n_runs = len(tracers)
    emits = [s.info for s in pick("agents.sender_emit", "train")]
    stack = pick("neural_stack.stack_step", "train")
    play_s = sorted(s.duration for s in play)
    wall = sum(s["wall_seconds_total"] for s in summaries)
    top_level = sum(s.duration for s in spans if s.parent is not None
                    and s.parent.name == "runner.run" and s.root in ("train", "eval"))
    return {
        "diffengine.backward.s": (total("game.backward") / n_iter, "s"),
        "diffengine.tape_nodes": (statistics.median(s.info for s in pick("game.backward")), "count"),
        "diffengine.adam_step.s": (total("runner.adam_step") / n_iter, "s"),
        "agents.sender_encode.s": (total("agents.sender_encode", "train") / n_iter, "s"),
        "agents.sender_emit.s": (total("agents.sender_emit", "train") / n_iter, "s"),
        "agents.receiver_encode.s": (total("agents.receiver_encode", "train") / n_iter, "s"),
        "agents.reconstruct.s": (total("agents.reconstruct", "train") / n_iter, "s"),
        "agents.prior.s": (total("agents.prior", "train") / n_iter, "s"),
        "agents.msg_len_mean": (sum(e[0] for e in emits) / sum(e[2] for e in emits), "symbols"),
        "agents.alive_ratio": (sum(e[0] for e in emits) / sum(e[1] for e in emits), "ratio"),
        "neural_stack.stack_step.s": (sum(s.duration for s in stack) / n_iter, "s"),
        "neural_stack.stack_step.calls": (len(stack) / n_iter, "count"),
        "neural_stack.depth_max": (max(s.info for s in stack), "count"),
        "game.play_batch.s_p50": (_quantile(play_s, 0.5), "s"),
        "game.play_batch.s_p90": (_quantile(play_s, 0.9), "s"),
        "game.play_batch.self_s": (sum(s.self_s for s in play) / n_iter, "s"),
        "game.build_agents.s": (total("runner.build_agents") / n_runs, "s"),
        "metrics.comacc.s": (total("runner.comacc") / n_eval, "s"),
        "metrics.mean_log_prior.s": (total("runner.mean_log_prior") / n_eval, "s"),
        "metrics.append_metrics.s": (total("runner.append_metrics") / n_eval, "s"),
        "meanings.build_space.s": ((total("runner.build_space") + total("runner.split")) / n_runs, "s"),
        "trace.unattributed_share": (1.0 - top_level / wall, "ratio"),
    }


def _quantile(sorted_values, q):
    """Nearest-rank quantile (the sample at or above a share ``q``)."""
    idx = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[idx]
