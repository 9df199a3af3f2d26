"""Experiment driver: presets, seeded streams, training runs, sweeps, reports.

A run owns a directory with three files: ``config.json`` (the fully resolved
configuration), ``metrics.csv`` (one row per evaluation point, appended and
flushed as the run progresses so a killed run leaves a parseable prefix) and
``summary.json`` (final numbers plus the kept/excluded flag). ``sweep``
executes a strategy x seed grid of such runs, each in its own ``eclab run``
child process, and aggregates their summaries; ``report`` turns finished run
directories into SVG line charts and the plotted values as CSV.

All randomness inside a run is drawn from named substreams derived by hashing
``"{master_seed}:{stream_name}"``, so individual sources (init, split, batch,
sender sampling, branching draws, evaluation) can be varied or held fixed
independently of each other.

What a run carries from one training step to the next (its splits, streams,
agents, optimiser, baseline, KL-weight controller and iteration count) is one
``RunState``, built by ``start``, moved forward by ``RunState.step`` and
measured at each evaluation point by ``RunState.evaluate``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import pathlib
import resource
import signal
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import THREAD_VARS
from .agents import Receiver, Sender, Strategy
from .game import (
    BaselineState,
    GameConfig,
    NonFiniteLossError,
    RewoState,
    build_agents,
    joint_parameters,
    load_parameters,
    play_batch,
    rewo_update,
    run_filter,
)
from .diffengine import AdamState, adam_step
from .meanings import enumerate_attr_val, enumerate_dyck, split
from .metrics import (
    CSV_FIELDS,
    MetricsRecord,
    append_metrics,
    comacc,
    mean_log_prior,
    read_metrics,
)
from .svgplot import PALETTE, Series, line_chart


class RunnerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig(GameConfig):
    """Everything a run needs: game settings plus schedule and bookkeeping."""

    preset: str = ""
    space: str = "attr_val"  # "attr_val" | "dyck"
    n_att: int = 2
    n_val: int = 4
    k: int = 1
    l_max: int = 18
    iterations: int = 2000
    seed: int = 0
    eval_every: int = 100
    eval_draws: int = 1
    stop_comacc_train: float = 0.0  # >0: stop once train ComAcc reaches it
    out_dir: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.space not in ("attr_val", "dyck"):
            raise RunnerError(f"unknown meaning space kind {self.space!r}")
        if self.iterations < 1:
            raise RunnerError(f"iterations must be >= 1, got {self.iterations}")
        if self.eval_every < 1:
            raise RunnerError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.eval_draws < 1:
            raise RunnerError(f"eval_draws must be >= 1, got {self.eval_draws}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_COERCERS = {"str": str, "int": int, "float": float}


def to_dict(config):
    return asdict(config)


def config_from_dict(data):
    """Build a RunConfig from a flat dict, rejecting unknown keys."""
    unknown = sorted(set(data) - set(_FIELD_TYPES))
    if unknown:
        raise RunnerError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**data)


def coerce_field(name, text):
    """Parse a CLI override string into the declared type of a config field."""
    if name not in _FIELD_TYPES:
        raise RunnerError(f"unknown config key {name!r}")
    return _COERCERS[_FIELD_TYPES[name]](text)


def parse_overrides(items):
    """``--set KEY=VALUE`` strings -> a dict of typed config field updates."""
    updates = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep:
            raise RunnerError(f"--set expects KEY=VALUE, got {item!r}")
        updates[key] = coerce_field(key, raw)
    return updates


# Full-scale settings live in the GameConfig defaults (hidden 512, batch
# 8192, lr/L2 1e-4, entropy 0.5, beta0 1e-3, caps 2); presets add the meaning
# space, the iteration budget and whether the KL weight is annealed. The two
# smoke presets are scaled down for CI and use a larger learning rate since
# their budget is a fraction of the full runs'.
PRESETS = {
    "exp1-dyck-k1": dict(space="dyck", k=1, l_max=18, iterations=15000),
    "exp1-dyck-k4": dict(space="dyck", k=4, l_max=8, iterations=15000),
    "exp1-dyck-k9": dict(space="dyck", k=9, l_max=6, iterations=15000),
    "exp2-attrval-2x64": dict(
        space="attr_val", n_att=2, n_val=64, iterations=10000, beta_mode="rewo"
    ),
    "exp2-attrval-4x8": dict(
        space="attr_val", n_att=4, n_val=8, iterations=10000, beta_mode="rewo"
    ),
    "prelim-2x64": dict(space="attr_val", n_att=2, n_val=64, iterations=5000),
    "prelim-3x16": dict(space="attr_val", n_att=3, n_val=16, iterations=5000),
    "prelim-4x8": dict(space="attr_val", n_att=4, n_val=8, iterations=5000),
    "prelim-6x4": dict(space="attr_val", n_att=6, n_val=4, iterations=5000),
    "smoke-attrval": dict(
        space="attr_val",
        n_att=2,
        n_val=4,
        hidden=64,
        batch_size=256,
        iterations=2000,
        lr=1e-3,
        entropy_coef=0.05,
    ),
    "smoke-dyck": dict(
        space="dyck",
        k=4,
        l_max=8,
        hidden=128,
        batch_size=512,
        iterations=4000,
        lr=2e-3,
        entropy_coef=0.02,
    ),
}


def resolve_preset(name, **overrides):
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise RunnerError(f"unknown preset {name!r} (known: {known})")
    settings = dict(PRESETS[name], preset=name)
    settings.update(overrides)
    return RunConfig(**settings)


# ---------------------------------------------------------------------------
# named RNG streams

STREAM_NAMES = ("init", "split", "batch", "sender", "branching")


def stream_seed(master_seed, name):
    """128-bit PCG64 seed from hashing the master seed and stream name."""
    digest = hashlib.sha256(f"{int(master_seed)}:{name}".encode("ascii")).digest()
    return int.from_bytes(digest[:16], "little")


def stream_generator(master_seed, name):
    return np.random.Generator(np.random.PCG64(stream_seed(master_seed, name)))


# ---------------------------------------------------------------------------
# single run


@dataclass
class RunResult:
    config: RunConfig
    records: list
    summary: dict
    out_dir: str

    @property
    def failed(self):
        return bool(self.summary.get("failed"))


def build_space(config):
    if config.space == "attr_val":
        return enumerate_attr_val(config.n_att, config.n_val)
    return enumerate_dyck(config.k, config.l_max)


def _eval_points(config):
    points = list(range(config.eval_every, config.iterations + 1, config.eval_every))
    if not points or points[-1] != config.iterations:
        points.append(config.iterations)
    return points


def _json_value(x):
    if x is None:
        return None
    x = float(x)
    return None if math.isnan(x) else x


# Peak-memory model of one training step: a fixed base plus, per batch item,
# the tape's saved activations, weighed apart for a message step (sender and
# receiver) and a Dyck step (sender's encoder and receiver's decoder), with a
# Dyck base as distinct word prefixes grow more slowly than the batch. It is a
# fit, calibrated (tests/test_runner.py, MEASURED_PEAKS_MB) while an lstm_cell
# record also kept [x, h], c and tanh(c2) and before the LSTMs ran on prefix
# nodes. Learned runs have peaked well below it since, random ones on spread
# batches near or above it; BENCH_07's ``extra`` block has the current peaks.
# A bound from the ops' saved arrays (ROADMAP item 2) is to replace it.
BASE_MB = 205.0
DYCK_BASE_MB = 100.0
VALUES_PER_MESSAGE_STEP = 7.2  # saved values per hidden unit and unrolled step
VALUES_PER_DYCK_STEP = 5.77


def estimate_peak_mb(config, itemsize=4):
    """Estimated peak RSS (MB) of a run of ``config`` with ``itemsize``-byte
    floats: the sender and receiver unroll ``max_len`` steps each, and on Dyck
    meanings the sender's encoder and the receiver's decoder ``l_max`` more."""
    values, base = VALUES_PER_MESSAGE_STEP * 2 * config.max_len, BASE_MB
    if config.space == "dyck":
        values += VALUES_PER_DYCK_STEP * 2 * config.l_max
        base += DYCK_BASE_MB
    return base + config.batch_size * values * config.hidden * itemsize / 2**20


def available_memory_mb(meminfo="/proc/meminfo"):
    """``MemAvailable`` in MB, or None where it cannot be read."""
    try:
        with open(meminfo) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def memory_refusal(config, itemsize=4):
    """Why ``config`` must not start (its estimated peak exceeds the memory
    available now), or None if it fits or the available memory is unknown."""
    available = available_memory_mb()
    if available is None:
        return None
    estimate = estimate_peak_mb(config, itemsize)
    if estimate <= available:
        return None
    return (
        f"memory preflight: estimated peak {estimate:.0f} MB exceeds the "
        f"{available:.0f} MB available (batch_size {config.batch_size}, hidden "
        f"{config.hidden}, max_len {config.max_len}, l_max {config.l_max}); "
        "lower batch_size"
    )


def split_space(config):
    """The meaning space of ``config`` and its train and test meanings, split
    by the ``split`` stream."""
    space = build_space(config)
    train_idx, test_idx = split(space, seed=stream_seed(config.seed, "split"))
    return space, [space.meanings[i] for i in train_idx], [space.meanings[i] for i in test_idx]


def _start_rewo(config):
    """The KL-weight controller a run starts with, None unless ``beta_mode``
    is rewo."""
    return RewoState.from_config(config) if config.beta_mode == "rewo" else None


@dataclass
class RunState:
    """What a run carries from one training step to the next, ``iteration``
    steps in: ``streams`` are the generators a step draws from, the
    parameters are the agents' own and beta is ``rewo``'s."""

    config: RunConfig
    train: list
    test: list
    streams: dict
    sender: Sender
    receiver: Receiver
    opt: AdamState
    baseline: BaselineState
    rewo: RewoState | None
    iteration: int = 0

    @property
    def beta(self):
        """The KL weight of the next step: the controller's, 0.0 without one."""
        return self.rewo.beta if self.rewo is not None else 0.0

    def step(self):
        """One training iteration: a batch of train meanings drawn from the
        ``batch`` stream, one game on it, the Adam update, and under rewo the
        KL weight's. Returns the step's ``StepStats`` and gradients."""
        picks = self.streams["batch"].integers(0, len(self.train), size=self.config.batch_size)
        stats, grads, self.baseline = play_batch(
            self.sender, self.receiver, [self.train[i] for i in picks], self.config,
            rng=self.streams["sender"], baseline=self.baseline, beta=self.beta,
            branch_rng=self.streams["branching"],
        )
        params = adam_step(self.opt, joint_parameters(self.sender, self.receiver), grads)
        load_parameters(self.sender, self.receiver, params)
        if self.rewo is not None:
            self.rewo = rewo_update(self.rewo, stats.recon_loss)
        self.iteration += 1
        return stats, grads

    def evaluate(self):
        """The evaluation values of a ``metrics.csv`` row, by field name:
        ComAcc on the train and test splits, then under rewo the mean log
        prior on both (NaN without rewo). All draws come from the stream
        ``eval/<iteration>``, both ComAccs' before either log prior's, so
        evaluating moves no stream that training draws from."""
        eval_rng = stream_generator(self.config.seed, f"eval/{self.iteration}")
        agents, strategy = (self.sender, self.receiver), self.config.strategy
        splits = {"train": self.train, "test": self.test}
        # ComAcc leaves each split's greedy messages (and, for the
        # deterministic strategies, its reads) for the log prior to reuse.
        memos = {name: {} if self.rewo is not None else None for name in splits}
        values = {
            f"comacc_{name}": comacc(*agents, meanings, strategy, eval_rng,
                                     draws=self.config.eval_draws, memo=memos[name])
            for name, meanings in splits.items()
        }
        for name, meanings in splits.items():
            values[f"mean_log_prior_{name}"] = math.nan if self.rewo is None else mean_log_prior(
                *agents, meanings, strategy, eval_rng, memo=memos[name]
            )
        return values


def start(config, dtype):
    """The state of a run of ``config`` before its first step, with ``dtype``
    parameters."""
    space, train, test = split_space(config)
    sender, receiver = build_agents(space, config, stream_generator(config.seed, "init"), dtype)
    streams = {n: stream_generator(config.seed, n) for n in ("batch", "sender", "branching")}
    return RunState(
        config, train, test, streams, sender, receiver, AdamState(lr=config.lr, l2=config.l2),
        BaselineState(decay=config.baseline_decay), _start_rewo(config),
    )


def run(config, out_dir=None):
    """Train one sender/receiver pair and persist metrics along the way.

    ``out_dir`` overrides ``config.out_dir``; one of the two must be set. A
    non-finite loss marks the run failed in summary.json (with diagnostics)
    instead of raising, so sweeps continue past bad seeds. So does a run the
    memory preflight refuses (``memory_refusal``): it trains nothing and
    writes no metrics.csv rows. A config whose meaning space cannot be
    built raises before the run directory is made; the metrics.csv
    and summary.json an earlier run left there are removed when config.json
    is written, so a run killed before it ends leaves no summary.
    """
    out = pathlib.Path(out_dir or config.out_dir or "")
    if str(out) in ("", "."):
        raise RunnerError("no output directory given (set out_dir or pass --out)")
    config = replace(config, out_dir=str(out))
    deterministic = os.environ.get("ECLAB_DETERMINISTIC") == "1"
    dtype = np.float64 if deterministic else np.float32
    state = start(config, dtype)

    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(to_dict(config), indent=2, sort_keys=True) + "\n"
    )
    metrics_path = out / "metrics.csv"
    for stale in (metrics_path, out / "summary.json"):  # an earlier run's, in this directory
        stale.unlink(missing_ok=True)
    refusal = memory_refusal(config, np.dtype(dtype).itemsize)
    if refusal is not None:
        return _finish_run(config, out, [], state.rewo, refusal, 0.0)

    eval_at = set(_eval_points(config))
    records = []
    error = None
    started = time.monotonic()
    try:
        while state.iteration < config.iterations:
            stats = state.step()[0]  # its gradients are not kept through the next step's peak
            if state.iteration not in eval_at:
                continue
            rec = MetricsRecord(
                state.iteration, **state.evaluate(), recon_loss=stats.recon_loss, kl=stats.kl,
                beta=stats.beta, entropy=stats.entropy,
                wall_seconds=0.0 if deterministic else time.monotonic() - started,
            )
            records.append(rec)
            append_metrics(metrics_path, rec)
            if 0.0 < config.stop_comacc_train <= rec.comacc_train:
                break
    except NonFiniteLossError as exc:
        error = f"{exc} | details: {exc.details}"
    wall = 0.0 if deterministic else time.monotonic() - started
    return _finish_run(config, out, records, state.rewo, error, wall)


def _finish_run(config, out, records, rewo, error, wall_seconds, usage=None):
    """Write ``summary.json``, whole or not at all, for a run that ended (or
    was refused) with the KL-weight controller ``rewo`` (None without one).
    Its peak RSS is ``usage.ru_maxrss``, this process's unless a child's
    rusage is given, and 0 under ``ECLAB_DETERMINISTIC=1`` like its wall time."""
    beta = rewo.beta if rewo is not None else 0.0
    usage = usage or resource.getrusage(resource.RUSAGE_SELF)
    deterministic = os.environ.get("ECLAB_DETERMINISTIC") == "1"
    final = records[-1] if records else None
    kept = (not error) and (rewo is None or run_filter(beta))
    summary = {
        "preset": config.preset,
        "strategy": Strategy.parse(config.strategy).value,
        "seed": config.seed,
        "iterations_done": final.iteration if final else 0,
        **{f"final_{m}": _json_value(getattr(final, m)) if final else None for m in REPORT_METRICS},
        "final_beta": beta,
        "kept": bool(kept),
        "failed": error is not None,
        "error": error,
        "wall_seconds_total": wall_seconds,
        "peak_rss_mb": 0.0 if deterministic else round(usage.ru_maxrss / 1024, 1),
        "stream_seeds": {name: stream_seed(config.seed, name) for name in STREAM_NAMES},
    }
    with open(out / "summary.json.tmp", "w") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(out / "summary.json.tmp", out / "summary.json")
    return RunResult(config=config, records=records, summary=summary, out_dir=str(out))


# ---------------------------------------------------------------------------
# sweeps

AGGREGATE_NUMERIC = [
    "comacc_train", "comacc_test", "beta", "mean_log_prior_train", "mean_log_prior_test"
]
AGGREGATE_FIELDS = ["preset", "strategy", "seed", "kind", "kept", "failed"]
AGGREGATE_FIELDS += [*AGGREGATE_NUMERIC, "peak_rss_mb", "error"]

DEFAULT_STRATEGIES = ("learned", "left", "random")


def child_env(jobs):
    """Environment of a sweep's ``eclab run`` children: the directory holding
    this ``eclab`` first on PYTHONPATH and, for ``jobs`` > 1, each BLAS/OpenMP
    pool given ``max(1, nproc // jobs)`` threads unless the variable is set."""
    env = dict(os.environ)
    package_root = str(pathlib.Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if jobs > 1:
        affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS
        nproc = len(affinity(0)) if affinity else os.cpu_count() or 1
        for var in THREAD_VARS:
            env.setdefault(var, str(max(1, nproc // jobs)))
    return env


def _spawn(cmd, run_dir, env):
    """Start one run's child with its output in ``child.log``; return its pid.
    Files an earlier run left in ``run_dir`` are removed first."""
    run_dir.mkdir(parents=True, exist_ok=True)
    for name in ("config.json", "metrics.csv", "summary.json"):
        (run_dir / name).unlink(missing_ok=True)
    with open(run_dir / "child.log", "wb") as log:
        to_log = [(os.POSIX_SPAWN_DUP2, log.fileno(), fd) for fd in (1, 2)]
        return os.posix_spawnp(cmd[0], cmd, env, file_actions=to_log)


def _reap(config, run_dir, status, usage):
    """Write a failed summary.json for a child that ended without one, with
    the peak RSS from its ``wait4`` rusage."""
    if (run_dir / "summary.json").exists():
        return
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        error = f"killed by signal {-code}"
    else:
        lines = (run_dir / "child.log").read_text(errors="replace").splitlines()
        error = f"exit code {code}: {lines[-1] if lines else ''}"
    _finish_run(config, run_dir, [], _start_rewo(config), error, 0.0, usage)


def sweep(preset, strategies=DEFAULT_STRATEGIES, seeds=24, jobs=1, out_root=None,
          overrides=None, child_prefix=(sys.executable, "-m", "eclab")):
    """Run the strategy x seed grid for a preset and write aggregate.csv.

    ``seeds`` is either a count (seeds 0..n-1) or an explicit list. Each run
    is a child process, ``child_prefix`` followed by ``run`` and the run's
    options, and up to ``jobs`` of them run at once. A child that ends without
    a summary.json gets a failed one naming its exit code or signal, and the
    other runs go on. Failed runs stay in the aggregate flagged, and
    per-strategy mean/std rows cover only kept runs. The aggregate lists the
    runs in grid order, so it is identical for any ``jobs``. A config or
    meaning space that cannot be built raises before any child starts.
    """
    strategies = [Strategy.parse(s).value for s in strategies]
    seed_list = sorted(range(seeds) if isinstance(seeds, int) else map(int, seeds))
    overrides = overrides or {}
    if jobs < 1:
        raise RunnerError(f"jobs must be >= 1, got {jobs}")
    if not strategies or not seed_list:
        raise RunnerError("need at least one strategy and at least one seed")
    if len(set(strategies)) < len(strategies) or len(set(seed_list)) < len(seed_list):
        raise RunnerError(f"repeated strategy or seed in {strategies} x {seed_list}")
    for key in ("seed", "strategy"):
        if key in overrides:
            raise RunnerError(f"cannot override {key!r}: the sweep sets it per run")
    root = pathlib.Path(out_root or f"runs/{preset}")
    sets = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
    grid = []
    for strategy in strategies:
        for seed in seed_list:
            config = resolve_preset(preset, strategy=strategy, seed=seed, **overrides)
            if not grid:  # only strategy and seed vary, so every run has this space
                split_space(config)
            run_dir = root / f"{preset}-{strategy}-s{seed}"
            cmd = [*child_prefix, "run", "--preset", preset, "--seed", str(seed)]
            cmd += ["--out", str(run_dir), "--set", f"strategy={strategy}", *sets]
            grid.append((config, run_dir, cmd))

    env = child_env(jobs)
    pending, running = grid[::-1], {}  # running: pid -> (config, run_dir)
    try:
        while pending or running:
            if pending and len(running) < jobs:
                config, run_dir, cmd = pending.pop()
                running[_spawn(cmd, run_dir, env)] = (config, run_dir)
                continue
            pid, status, usage = os.wait4(-1, 0)
            if pid in running:  # any other pid was not a sweep child
                _reap(*running.pop(pid), status, usage)
    except BaseException:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise

    rows = []
    for config, run_dir, _ in grid:
        summary = json.loads((run_dir / "summary.json").read_text())
        rows.append(dict(
            preset=preset, strategy=config.strategy, seed=config.seed, kind="run",
            kept=summary["kept"], failed=summary["failed"], error=summary["error"] or "",
            peak_rss_mb=summary["peak_rss_mb"],
            **{col: summary[f"final_{col}"] for col in AGGREGATE_NUMERIC},
        ))
    stat_rows = []
    for strategy in strategies:
        kept = [r for r in rows if r["strategy"] == strategy and r["kept"] and not r["failed"]]
        for kind, fn in (("mean", np.mean), ("std", np.std)):
            stat = dict(preset=preset, strategy=strategy, seed="", kind=kind, kept=len(kept),
                        failed="", error="")
            for col in AGGREGATE_NUMERIC:
                vals = [r[col] for r in kept if r[col] is not None]
                stat[col] = float(fn(vals)) if vals else None
            stat_rows.append(stat)

    all_rows = rows + stat_rows
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "aggregate.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=AGGREGATE_FIELDS)
        writer.writeheader()
        for row in all_rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in AGGREGATE_FIELDS})
    return all_rows


# ---------------------------------------------------------------------------
# reports

STRATEGY_COLORS = {
    "learned": PALETTE[0],
    "left": PALETTE[1],
    "random": PALETTE[2],
}

REPORT_METRICS = ("comacc_train", "comacc_test", "mean_log_prior_train", "mean_log_prior_test")


def _group_label(config_dict):
    # one report group per meaning space and beta_mode; rewo groups add -rewo
    if config_dict["space"] == "attr_val":
        label = f"attrval-{config_dict['n_att']}x{config_dict['n_val']}"
    else:
        label = f"dyck-k{config_dict['k']}-lmax{config_dict['l_max']}"
    return label + ("-rewo" if config_dict["beta_mode"] == "rewo" else "")


def _load_run_dirs(in_dirs):
    """Accept run directories directly or parents of run directories."""
    found = []
    for raw in in_dirs:
        path = pathlib.Path(raw)
        if (path / "metrics.csv").exists():
            found.append(path)
            continue
        subs = sorted(p for p in path.glob("*") if (p / "metrics.csv").exists())
        if not subs:
            raise RunnerError(f"{raw} contains no run (no metrics.csv found)")
        found.extend(subs)
    return found


def report(in_dirs, out_dir):
    """Plot kept runs grouped by meaning space and ``beta_mode``: one SVG +
    CSV per metric, named after the space, with ``-rewo`` for rewo runs.

    Each chart carries one series per strategy (mean over kept seeds, min/max
    band). A run without a summary.json never finished and is skipped like a
    run not kept. Returns the list of files written.
    """
    run_dirs = _load_run_dirs(in_dirs)
    if not run_dirs:
        raise RunnerError("no input run directories")
    groups = {}
    for path in run_dirs:
        # the summary first: a run killed before writing one may have left a
        # half-written last row in metrics.csv
        summary_path = path / "summary.json"
        if not summary_path.exists() or not json.loads(summary_path.read_text())["kept"]:
            continue
        config_dict = json.loads((path / "config.json").read_text())
        records = read_metrics(path / "metrics.csv")
        strategy = Strategy.parse(config_dict["strategy"]).value
        groups.setdefault(_group_label(config_dict), {}).setdefault(strategy, []).append(records)

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for group in sorted(groups):
        by_strategy = groups[group]
        grids = [[r.iteration for r in recs] for runs in by_strategy.values() for recs in runs]
        if any(g != grids[0] for g in grids):
            raise RunnerError(f"runs in group {group!r} disagree on evaluation iterations")
        iters = grids[0]
        for metric in REPORT_METRICS:
            series = []
            for strategy in DEFAULT_STRATEGIES:
                runs = by_strategy.get(strategy)
                if not runs:
                    continue
                values = np.array(
                    [[getattr(r, metric) for r in recs] for recs in runs], dtype=float
                )
                if not np.all(np.isfinite(values)):
                    continue
                mean = values.mean(axis=0)
                lo = values.min(axis=0)
                hi = values.max(axis=0)
                series.append(
                    Series(
                        label=strategy,
                        xs=list(iters),
                        ys=mean.tolist(),
                        color=STRATEGY_COLORS[strategy],
                        band_lo=lo.tolist(),
                        band_hi=hi.tolist(),
                    )
                )
            if not series:
                continue
            base = f"{group}_{metric}"
            svg = line_chart(
                series,
                title=f"{group}: {metric}",
                xlabel="iteration",
                ylabel=metric,
            )
            (out / f"{base}.svg").write_text(svg)
            with open(out / f"{base}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["iteration"] + [f"{s.label}_{k}" for s in series for k in ("mean", "lo", "hi")]
                )
                for i, it in enumerate(iters):
                    cols = (c[i] for s in series for c in (s.ys, s.band_lo, s.band_hi))
                    writer.writerow([it] + [repr(float(v)) for v in cols])
            written += [str(out / f"{base}.svg"), str(out / f"{base}.csv")]
    if not written:
        raise RunnerError("nothing to plot (no kept runs with finite values)")
    return written
