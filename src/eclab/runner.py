"""Experiment driver: presets, seeded streams, training runs, sweeps, reports.

A run owns a directory with three files: ``config.json`` (the fully resolved
configuration), ``metrics.csv`` (one row per evaluation point, appended and
flushed as the run progresses so a killed run leaves a parseable prefix) and
``summary.json`` (final numbers plus the kept/excluded flag). ``sweep``
executes a strategy x seed grid of such runs and aggregates their summaries;
``report`` turns finished run directories into SVG line charts and the plotted
values as CSV.

All randomness inside a run is drawn from named substreams derived by hashing
``"{master_seed}:{stream_name}"``, so individual sources (init, split, batch,
sender sampling, branching draws, evaluation) can be varied or held fixed
independently of each other.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .agents import Strategy
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

STREAM_NAMES = ("init", "split", "batch", "sender", "branching", "eval")


def stream_seed(master_seed, name):
    """128-bit PCG64 seed from hashing the master seed and stream name."""
    digest = hashlib.sha256(f"{int(master_seed)}:{name}".encode("ascii")).digest()
    return int.from_bytes(digest[:16], "little")


def stream_generator(master_seed, name):
    return np.random.Generator(np.random.PCG64(stream_seed(master_seed, name)))


def seed_streams(master_seed):
    """One independent generator per named randomness source."""
    return {name: stream_generator(master_seed, name) for name in STREAM_NAMES}


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
# Dyck base as distinct word prefixes grow more slowly than the batch. It is
# calibrated on the least favourable messages: all max_len long, each symbol
# drawn uniformly from the content symbols (fresh agents peak 10-29% lower,
# as the receiver runs once per distinct message prefix). ``eclab run``
# processes (hidden 512, float32) peaked at 675, 1122 and 3519 MB for
# exp1-dyck-k4 at batch 1024, 2048 and 8192, at 900, 1542 and 5096 MB for
# exp1-dyck-k1, at 627, 1037 and 3203 MB for exp1-dyck-k9, and at 405 to
# 1910 MB for exp2-attrval-4x8 at 1024 to 8192; the model is 0.5-8% above each.
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


def run(config, out_dir=None):
    """Train one sender/receiver pair and persist metrics along the way.

    ``out_dir`` overrides ``config.out_dir``; one of the two must be set. A
    non-finite loss marks the run failed in summary.json (with diagnostics)
    instead of raising, so sweeps continue past bad seeds. So does a run the
    memory preflight refuses (``memory_refusal``): it trains nothing and
    writes no metrics.csv rows. A config whose meaning space or agents
    cannot be built raises before the run directory is made.
    """
    out = pathlib.Path(out_dir or config.out_dir or "")
    if str(out) in ("", "."):
        raise RunnerError("no output directory given (set out_dir or pass --out)")
    config = replace(config, out_dir=str(out))
    deterministic = os.environ.get("ECLAB_DETERMINISTIC") == "1"
    dtype = np.float64 if deterministic else np.float32
    strategy = Strategy.parse(config.strategy)
    use_prior = config.beta_mode == "rewo"

    space = build_space(config)
    train_idx, test_idx = split(space, seed=stream_seed(config.seed, "split"))
    train = [space.meanings[i] for i in train_idx]
    test = [space.meanings[i] for i in test_idx]
    streams = seed_streams(config.seed)
    sender, receiver = build_agents(space, config, streams["init"], dtype=dtype)

    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(to_dict(config), indent=2, sort_keys=True) + "\n"
    )
    refusal = memory_refusal(config, np.dtype(dtype).itemsize)
    if refusal is not None:
        return _finish_run(config, out, [], config.beta0 if use_prior else 0.0, refusal, 0.0)

    params = joint_parameters(sender, receiver)
    opt = AdamState(lr=config.lr, l2=config.l2)
    baseline = BaselineState(decay=config.baseline_decay)
    rewo = RewoState.from_config(config) if use_prior else None
    beta = rewo.beta if use_prior else 0.0

    metrics_path = out / "metrics.csv"
    eval_at = set(_eval_points(config))
    records = []
    error = None
    started = time.monotonic()

    def evaluate(iteration, stats):
        eval_rng = stream_generator(config.seed, f"eval/{iteration}")
        # ComAcc leaves each split's greedy messages (and, for the
        # deterministic strategies, its reads) for the log prior to reuse
        memo_train, memo_test = {}, {}
        rec = MetricsRecord(
            iteration=iteration,
            comacc_train=comacc(
                sender, receiver, train, strategy, eval_rng,
                draws=config.eval_draws, memo=memo_train if use_prior else None,
            ),
            comacc_test=comacc(
                sender, receiver, test, strategy, eval_rng,
                draws=config.eval_draws, memo=memo_test if use_prior else None,
            ),
            mean_log_prior_train=(
                mean_log_prior(sender, receiver, train, strategy, eval_rng, memo=memo_train)
                if use_prior
                else math.nan
            ),
            mean_log_prior_test=(
                mean_log_prior(sender, receiver, test, strategy, eval_rng, memo=memo_test)
                if use_prior
                else math.nan
            ),
            recon_loss=stats.recon_loss,
            kl=stats.kl,
            beta=stats.beta,
            entropy=stats.entropy,
            wall_seconds=0.0 if deterministic else time.monotonic() - started,
        )
        records.append(rec)
        append_metrics(metrics_path, rec)

    try:
        for iteration in range(1, config.iterations + 1):
            picks = streams["batch"].integers(0, len(train), size=config.batch_size)
            batch = [train[i] for i in picks]
            stats, grads, baseline = play_batch(
                sender,
                receiver,
                batch,
                config,
                rng=streams["sender"],
                baseline=baseline,
                beta=beta,
                branch_rng=streams["branching"],
            )
            params = adam_step(opt, params, grads)
            grads = None  # not kept alive through the next step's peak
            load_parameters(sender, receiver, params)
            if use_prior:
                rewo = rewo_update(rewo, stats.recon_loss)
                beta = rewo.beta
            if iteration in eval_at:
                evaluate(iteration, stats)
                if (
                    config.stop_comacc_train > 0.0
                    and records[-1].comacc_train >= config.stop_comacc_train
                ):
                    break
    except NonFiniteLossError as exc:
        error = f"{exc} | details: {exc.details}"
    wall = 0.0 if deterministic else time.monotonic() - started
    return _finish_run(config, out, records, beta, error, wall)


def _finish_run(config, out, records, beta, error, wall_seconds):
    """Write ``summary.json`` for a run that ended (or was refused)."""
    use_prior = config.beta_mode == "rewo"
    final = records[-1] if records else None
    kept = (not error) and (run_filter(beta) if use_prior else True)
    summary = {
        "preset": config.preset,
        "strategy": Strategy.parse(config.strategy).value,
        "seed": config.seed,
        "iterations_done": final.iteration if final else 0,
        "final_comacc_train": _json_value(final.comacc_train) if final else None,
        "final_comacc_test": _json_value(final.comacc_test) if final else None,
        "final_mean_log_prior_train": (
            _json_value(final.mean_log_prior_train) if final else None
        ),
        "final_mean_log_prior_test": (
            _json_value(final.mean_log_prior_test) if final else None
        ),
        "final_beta": beta,
        "kept": bool(kept),
        "failed": error is not None,
        "error": error,
        "wall_seconds_total": wall_seconds,
        "stream_seeds": {name: stream_seed(config.seed, name) for name in STREAM_NAMES},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return RunResult(config=config, records=records, summary=summary, out_dir=str(out))


# ---------------------------------------------------------------------------
# sweeps

AGGREGATE_FIELDS = [
    "preset",
    "strategy",
    "seed",
    "kind",
    "kept",
    "failed",
    "comacc_train",
    "comacc_test",
    "beta",
    "mean_log_prior_train",
    "mean_log_prior_test",
    "error",
]

DEFAULT_STRATEGIES = ("learned", "left", "random")


def _sweep_job(arg):
    config_dict, out_dir = arg
    try:
        result = run(config_from_dict(config_dict), out_dir=out_dir)
        return out_dir, result.summary.get("error")
    except Exception as exc:  # a broken run must not kill the sweep
        return out_dir, f"{type(exc).__name__}: {exc}"


def sweep(preset, strategies=DEFAULT_STRATEGIES, seeds=24, jobs=1, out_root=None, overrides=None):
    """Run the strategy x seed grid for a preset and write aggregate.csv.

    ``seeds`` is either a count (seeds 0..n-1) or an explicit list. Failed
    runs stay in the aggregate flagged, and per-strategy mean/std rows cover
    only kept runs. The aggregate is sorted, so it is identical for any level
    of parallelism.
    """
    strategies = [Strategy.parse(s).value for s in strategies]
    seed_list = list(range(seeds)) if isinstance(seeds, int) else [int(s) for s in seeds]
    if not seed_list:
        raise RunnerError("need at least one seed")
    root = pathlib.Path(out_root or f"runs/{preset}")
    jobs_args = []
    for strategy in strategies:
        for seed in seed_list:
            config = resolve_preset(preset, strategy=strategy, seed=seed, **(overrides or {}))
            run_dir = root / f"{preset}-{strategy}-s{seed}"
            jobs_args.append((to_dict(config), str(run_dir)))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            launch_errors = dict(pool.map(_sweep_job, jobs_args))
    else:
        launch_errors = dict(map(_sweep_job, jobs_args))

    rows = []
    for config_dict, run_dir in jobs_args:
        summary_path = pathlib.Path(run_dir) / "summary.json"
        if summary_path.exists():
            summary = json.loads(summary_path.read_text())
        else:
            summary = {
                "kept": False,
                "failed": True,
                "error": launch_errors.get(run_dir, "missing summary.json"),
            }
        rows.append(
            {
                "preset": preset,
                "strategy": config_dict["strategy"],
                "seed": config_dict["seed"],
                "kind": "run",
                "kept": summary.get("kept", False),
                "failed": summary.get("failed", True),
                "comacc_train": summary.get("final_comacc_train"),
                "comacc_test": summary.get("final_comacc_test"),
                "beta": summary.get("final_beta"),
                "mean_log_prior_train": summary.get("final_mean_log_prior_train"),
                "mean_log_prior_test": summary.get("final_mean_log_prior_test"),
                "error": summary.get("error") or "",
            }
        )
    rows.sort(key=lambda r: (strategies.index(r["strategy"]), r["seed"]))

    stat_rows = []
    numeric = ["comacc_train", "comacc_test", "beta", "mean_log_prior_train", "mean_log_prior_test"]
    for strategy in strategies:
        kept = [r for r in rows if r["strategy"] == strategy and r["kept"] and not r["failed"]]
        for kind, fn in (("mean", np.mean), ("std", np.std)):
            stat = {
                "preset": preset,
                "strategy": strategy,
                "seed": "",
                "kind": kind,
                "kept": len(kept),
                "failed": "",
                "error": "",
            }
            for col in numeric:
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


def _space_label(config_dict):
    if config_dict["space"] == "attr_val":
        return f"attrval-{config_dict['n_att']}x{config_dict['n_val']}"
    return f"dyck-k{config_dict['k']}-lmax{config_dict['l_max']}"


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
    """Plot kept runs grouped by meaning space: one SVG + CSV per metric.

    Each chart carries one series per strategy (mean over kept seeds, min/max
    band). Returns the list of files written.
    """
    run_dirs = _load_run_dirs(in_dirs)
    if not run_dirs:
        raise RunnerError("no input run directories")
    groups = {}
    for path in run_dirs:
        config_dict = json.loads((path / "config.json").read_text())
        records = read_metrics(path / "metrics.csv")
        summary_path = path / "summary.json"
        summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
        if not records or not summary.get("kept", True):
            continue
        strategy = Strategy.parse(config_dict["strategy"]).value
        groups.setdefault(_space_label(config_dict), {}).setdefault(strategy, []).append(records)

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
