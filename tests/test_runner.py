import csv
import importlib.util
import json
import math
import os
import pathlib
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

import eclab
from eclab import runner as runner_module
from eclab.game import GameError
from eclab.metrics import CSV_FIELDS, read_metrics
from eclab.runner import (
    PRESETS,
    STREAM_NAMES,
    RunConfig,
    RunnerError,
    available_memory_mb,
    build_space,
    coerce_field,
    config_from_dict,
    estimate_peak_mb,
    memory_refusal,
    report,
    resolve_preset,
    run,
    start,
    stream_generator,
    stream_seed,
    sweep,
    to_dict,
)

TINY = dict(
    space="attr_val",
    n_att=2,
    n_val=3,
    hidden=16,
    embedding=8,
    batch_size=16,
    iterations=6,
    eval_every=3,
    lr=1e-3,
)


def tiny_config(**overrides):
    return RunConfig(**{**TINY, **overrides})


# ---------------------------------------------------------------------------
# presets and config plumbing


def test_all_presets_resolve():
    for name in PRESETS:
        config = resolve_preset(name)
        assert config.preset == name


def test_unknown_preset_rejected():
    with pytest.raises(RunnerError, match="unknown preset"):
        resolve_preset("exp3-nope")


def test_full_scale_preset_values():
    config = resolve_preset("exp1-dyck-k4")
    assert (config.space, config.k, config.l_max) == ("dyck", 4, 8)
    assert config.iterations == 15000
    assert config.hidden == 512
    assert config.embedding == 32
    assert config.vocab == 4
    assert config.max_len == 8
    assert (config.k_u, config.k_d, config.k_r) == (2.0, 2.0, 2.0)
    assert config.lr == 1e-4 and config.l2 == 1e-4
    assert config.entropy_coef == 0.5
    assert config.batch_size == 8192
    assert config.beta0 == 1e-3
    assert config.beta_mode == "off"


def test_exp2_preset_uses_rewo():
    config = resolve_preset("exp2-attrval-2x64")
    assert config.beta_mode == "rewo"
    assert config.iterations == 10000
    assert config.beta0 == 0.001


def test_prelim_preset_space_size():
    config = resolve_preset("prelim-3x16")
    assert config.iterations == 5000
    assert config.beta_mode == "off"
    assert len(build_space(config)) == 4096


def test_dyck_preset_space_sizes():
    assert len(build_space(resolve_preset("exp1-dyck-k4"))) == 3941
    assert len(build_space(resolve_preset("exp1-dyck-k9"))) == 3817


def test_smoke_preset_scale():
    config = resolve_preset("smoke-attrval")
    assert (config.n_att, config.n_val) == (2, 4)
    assert config.hidden == 64
    assert config.batch_size == 256
    assert config.iterations == 2000


def test_config_dict_roundtrip():
    config = tiny_config(strategy="left", seed=7)
    again = config_from_dict(to_dict(config))
    assert again == config


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(RunnerError, match="unknown config keys"):
        config_from_dict({**to_dict(tiny_config()), "hiden": 3})
    with pytest.raises(RunnerError, match="meaning space"):
        RunConfig(space="graph")
    with pytest.raises(RunnerError, match="eval_every"):
        tiny_config(eval_every=0)


def test_coerce_field_types():
    assert coerce_field("hidden", "24") == 24
    assert coerce_field("lr", "0.5") == 0.5
    assert coerce_field("strategy", "left") == "left"
    with pytest.raises(RunnerError, match="unknown config key"):
        coerce_field("nope", "1")


# ---------------------------------------------------------------------------
# seed streams


def test_seed_streams_named_and_deterministic():
    # a run state holds only the streams its steps draw from
    streams = start(tiny_config(seed=3), np.float32).streams
    assert tuple(streams) == ("batch", "sender", "branching")
    first = {name: g.integers(0, 2**63) for name, g in streams.items()}
    again = start(tiny_config(seed=3), np.float32).streams
    assert first == {name: g.integers(0, 2**63) for name, g in again.items()}
    other = start(tiny_config(seed=4), np.float32).streams
    assert all(first[name] != g.integers(0, 2**63) for name, g in other.items())


def test_stream_first_outputs_pinned():
    # frozen regression values for master seed 0
    sender = stream_generator(0, "sender").integers(0, 2**63)
    branching = stream_generator(0, "branching").integers(0, 2**63)
    assert sender == 5655398217910713473
    assert branching == 2061945440808585201
    assert sender != branching


def test_stream_seed_is_name_sensitive():
    seeds = {name: stream_seed(0, name) for name in STREAM_NAMES}
    assert len(set(seeds.values())) == len(STREAM_NAMES)


# ---------------------------------------------------------------------------
# run()


def test_run_writes_expected_files(tmp_path):
    result = run(tiny_config(), out_dir=tmp_path / "r0")
    assert not result.failed
    for name in ("config.json", "metrics.csv", "summary.json"):
        assert (tmp_path / "r0" / name).exists()
    config_dict = json.loads((tmp_path / "r0" / "config.json").read_text())
    assert config_dict["hidden"] == 16
    assert config_dict["out_dir"].endswith("r0")
    rows = read_metrics(tmp_path / "r0" / "metrics.csv")
    assert [r.iteration for r in rows] == [3, 6]
    with open(tmp_path / "r0" / "metrics.csv") as fh:
        assert next(csv.reader(fh)) == CSV_FIELDS
    summary = json.loads((tmp_path / "r0" / "summary.json").read_text())
    assert summary["kept"] is True and summary["failed"] is False
    assert set(summary["stream_seeds"]) == set(STREAM_NAMES)
    assert summary["final_comacc_train"] == rows[-1].comacc_train


def test_run_into_a_used_directory_starts_metrics_afresh(tmp_path):
    run(tiny_config(seed=0), out_dir=tmp_path / "r")
    second = run(tiny_config(seed=5), out_dir=tmp_path / "r")
    with open(tmp_path / "r" / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{k: str(v) for k, v in r.as_row().items()} for r in second.records]
    assert [row["iteration"] for row in rows] == ["3", "6"]


def test_run_into_a_used_directory_leaves_no_summary_until_it_ends(tmp_path, monkeypatch):
    run(tiny_config(), out_dir=tmp_path / "r")

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_module, "play_batch", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(tiny_config(), out_dir=tmp_path / "r")
    assert not (tmp_path / "r" / "summary.json").exists()


def test_a_summary_is_written_whole_or_not_at_all(tmp_path, monkeypatch):
    # summary.json appears only by a rename of a finished file, so a run
    # killed while writing it leaves none
    def fail(*args, **kwargs):
        raise OSError("rename failed")

    monkeypatch.setattr(runner_module.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        run(tiny_config(), out_dir=tmp_path / "r")
    assert not (tmp_path / "r" / "summary.json").exists()


def test_a_summary_is_fsynced_before_its_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, pathlib.Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(runner_module.os, "fsync", fsync)
    monkeypatch.setattr(runner_module.os, "replace", replace)
    run(tiny_config(), out_dir=tmp_path / "r")
    (k, (_, inode, _)), = [(k, e) for k, e in enumerate(events) if e[-1] == "summary.json"]
    assert ("fsync", inode) in events[:k]


@pytest.mark.parametrize("deterministic", [False, True])
def test_run_records_its_peak_rss(tmp_path, monkeypatch, deterministic):
    if deterministic:
        monkeypatch.setenv("ECLAB_DETERMINISTIC", "1")
    else:
        monkeypatch.delenv("ECLAB_DETERMINISTIC", raising=False)
    result = run(tiny_config(), out_dir=tmp_path / "r")
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["peak_rss_mb"] == result.summary["peak_rss_mb"]
    if deterministic:
        assert summary["peak_rss_mb"] == 0.0
    else:
        assert summary["peak_rss_mb"] > 0.0


def test_run_requires_out_dir():
    with pytest.raises(RunnerError, match="output directory"):
        run(tiny_config())


def test_run_eval_points_include_final(tmp_path):
    result = run(tiny_config(iterations=7), out_dir=tmp_path / "r")
    assert [r.iteration for r in result.records] == [3, 6, 7]


def test_run_without_prior_reports_nan_log_prior(tmp_path):
    result = run(tiny_config(), out_dir=tmp_path / "r")
    assert math.isnan(result.records[-1].mean_log_prior_train)
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["final_mean_log_prior_train"] is None


def test_run_with_rewo_tracks_beta_and_prior(tmp_path):
    result = run(tiny_config(beta_mode="rewo"), out_dir=tmp_path / "r")
    rec = result.records[-1]
    assert rec.mean_log_prior_train < 0.0
    assert rec.beta >= 1e-3
    # a six-step run cannot saturate beta, so the filter must exclude it
    assert result.summary["kept"] is False


def test_run_deterministic_mode_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("ECLAB_DETERMINISTIC", "1")
    config = tiny_config(seed=5)
    run(config, out_dir=tmp_path / "a")
    run(config, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b
    assert all(r.wall_seconds == 0.0 for r in read_metrics(tmp_path / "a" / "metrics.csv"))


# ---------------------------------------------------------------------------
# memory preflight


def test_available_memory_reads_meminfo(tmp_path):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:        8222320 kB\nMemAvailable:    2097152 kB\n")
    assert available_memory_mb(str(meminfo)) == 2048.0
    meminfo.write_text("MemTotal:        8222320 kB\n")
    assert available_memory_mb(str(meminfo)) is None
    assert available_memory_mb(str(tmp_path / "missing")) is None


# The calibration peaks (MB) of the preflight fit, measured before an
# lstm_cell record kept only its gates (BENCH_06): the code peaks lower since,
# e.g. exp1-dyck-k4 at batch 1024 at 531 MB against the 675.4 here (BENCH_07's
# ``extra`` block has the later peaks). They stay the fit's
# reference until a bound from the ops' saved arrays replaces it. Each was at
# hidden 512, float32, on batches whose messages are all max_len long with
# uniformly drawn content symbols, the least prefix sharing a sampled batch
# gets (fresh agents peak lower): ``tools/peak_rss.py python3
# tools/spread_run.py --preset P --set batch_size=B --set iterations=2 --set
# eval_every=2 --out DIR`` (at batch 8192, 6 iterations for exp1-dyck-k4 and
# 4 for exp1-dyck-k1).
MEASURED_PEAKS_MB = {
    ("exp1-dyck-k4", 1024): 675.4,
    ("exp1-dyck-k4", 2048): 1121.8,
    ("exp1-dyck-k4", 8192): 3518.5,
    ("exp1-dyck-k1", 1024): 899.8,
    ("exp1-dyck-k1", 2048): 1542.0,
    ("exp1-dyck-k1", 8192): 5096.3,
    ("exp1-dyck-k9", 1024): 627.1,
    ("exp1-dyck-k9", 2048): 1036.8,
    ("exp1-dyck-k9", 8192): 3203.4,
    ("exp2-attrval-4x8", 1024): 405.2,
    ("exp2-attrval-4x8", 2048): 660.8,
    ("exp2-attrval-4x8", 4096): 1104.8,
    ("exp2-attrval-4x8", 8192): 1909.9,
    ("exp2-attrval-2x64", 2048): 645.9,
    ("exp2-attrval-2x64", 8192): 1907.1,
}


def _estimate(preset, batch):
    return estimate_peak_mb(replace(resolve_preset(preset), batch_size=batch))


def test_peak_estimate_follows_the_calibration():
    dyck = resolve_preset("exp1-dyck-k4")
    assert estimate_peak_mb(dyck, itemsize=8) > estimate_peak_mb(dyck)
    assert estimate_peak_mb(replace(dyck, hidden=256)) < estimate_peak_mb(dyck)
    assert estimate_peak_mb(replace(dyck, l_max=18)) > estimate_peak_mb(dyck)
    # l_max is unused on attribute-value meanings
    attr = resolve_preset("prelim-4x8")
    assert estimate_peak_mb(replace(attr, l_max=30)) == estimate_peak_mb(attr)


def test_peak_estimate_stays_just_above_every_measured_peak():
    for (preset, batch), peak in MEASURED_PEAKS_MB.items():
        assert peak < _estimate(preset, batch) < 1.08 * peak, (preset, batch)


def test_peak_estimate_weighs_dyck_steps_apart():
    # exp1-dyck-k1 (l_max 18) grew by 0.627 MB per item from batch 1024 to
    # 2048; a model weighing every step alike gave 0.985
    per_item = (_estimate("exp1-dyck-k1", 2048) - _estimate("exp1-dyck-k1", 1024)) / 1024
    assert 0.627 <= per_item <= 1.08 * 0.627


def test_preflight_refuses_a_run_that_does_not_fit(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_module, "available_memory_mb", lambda: 100.0)
    result = run(tiny_config(), out_dir=tmp_path / "r")
    assert result.failed and result.records == []
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["failed"] is True and summary["kept"] is False
    assert summary["iterations_done"] == 0
    estimate = estimate_peak_mb(tiny_config())
    assert f"estimated peak {estimate:.0f} MB" in summary["error"]
    assert "100 MB available" in summary["error"]
    assert (tmp_path / "r" / "config.json").exists()
    assert not (tmp_path / "r" / "metrics.csv").exists()


def test_preflight_is_skipped_when_memory_is_unknown(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_module, "available_memory_mb", lambda: None)
    assert memory_refusal(resolve_preset("exp1-dyck-k1")) is None
    assert not run(tiny_config(), out_dir=tmp_path / "r").failed


def _load(monkeypatch, relative):
    """A file of this repository outside the package, loaded by its path."""
    path = pathlib.Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _benchmark_workloads(monkeypatch):
    return _load(monkeypatch, "perfbench/workloads.py").WORKLOADS.values()


def test_traced_benchmark_sees_every_runner_call_under_its_root(tmp_path, monkeypatch):
    # the per-layer metrics read spans opened directly under runner.run
    tracing = _load(monkeypatch, "perfbench/tracing.py")
    tracer = tracing.Tracer()
    tracing.instrument(tracer, eclab)
    try:
        runner_module.run(tiny_config(beta_mode="rewo"), out_dir=tmp_path / "r")
    finally:
        tracer.restore()
    assert runner_module.run is run
    # tiny_config: 6 iterations, evaluated on both splits at 3 and 6
    calls = dict(build_space=1, split=1, build_agents=1, play_batch=6, adam_step=6,
                 load_parameters=6, rewo_update=6, comacc=4, mean_log_prior=4, append_metrics=2)
    assert calls.keys() == tracing.RUNNER_CALLS.keys()
    for name, root in tracing.RUNNER_CALLS.items():
        spans = [s for s in tracer.spans if s.name == f"runner.{name}"]
        assert len(spans) == calls[name], name
        assert {(s.parent.name, s.root) for s in spans} == {("runner.run", root)}, name


def test_benchmark_kernels_run_on_the_public_api(monkeypatch):
    # the traced benchmark times LstmCell.step, StackState.empty, stack_push,
    # StackDirectives and stack_step through these calls
    kernels = _load(monkeypatch, "perfbench/kernels.py")
    # three repeats each: a median, so one slow repeat cannot zero a net time
    monkeypatch.setattr(kernels, "BUDGET_S", 0)
    monkeypatch.setattr(kernels, "MIN_REPS", 3)
    metrics = kernels.kernel_metrics(eclab, quick=True)
    assert len(metrics) == 17
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_run_and_both_tools_take_the_same_first_step(tmp_path, monkeypatch):
    # a rewo run plays its first batch at beta0, and both tools measure that
    # step; after three steps grad_hash evaluates what eclab run logs (random
    # rewo draws directives in ComAcc and the log prior, from eval/<iteration>)
    tape_ops = _load(monkeypatch, "tools/tape_ops.py")
    grad_hash = _load(monkeypatch, "tools/grad_hash.py")
    config = resolve_preset(
        "smoke-attrval", strategy="random", beta_mode="rewo", hidden=32, batch_size=64,
        iterations=grad_hash.STEPS, eval_every=grad_hash.STEPS,
    )
    monkeypatch.setenv("ECLAB_DETERMINISTIC", "1")  # float64, as the grad_hash case
    calls, play_batch = [], runner_module.play_batch

    def recording(sender, receiver, meanings, config, rng, baseline, beta=0.0, branch_rng=None):
        calls.append((list(meanings), beta))
        return play_batch(sender, receiver, meanings, config, rng, baseline, beta, branch_rng)

    def first_step(fn, *args):
        calls.clear()
        out = fn(*args)
        assert calls, f"{fn.__name__} played no batch through runner.play_batch"
        return calls[0], out

    monkeypatch.setattr(runner_module, "play_batch", recording)
    first, _ = first_step(run, config, tmp_path / "r")
    assert first[1] == config.beta0 == 1e-3
    assert first_step(tape_ops.count_ops, config)[0] == first
    step, (_, arrays) = first_step(grad_hash.run_case, "smoke-attrval", "random", "rewo", np.float64)
    assert step == first
    (row,) = read_metrics(tmp_path / "r" / "metrics.csv")
    logged = [row.comacc_train, row.comacc_test, row.mean_log_prior_train, row.mean_log_prior_test]
    assert logged == arrays["eval"].tolist()


def test_evaluating_leaves_training_untouched():
    config = resolve_preset(
        "smoke-attrval", strategy="random", beta_mode="rewo", hidden=32, batch_size=64
    )
    evaluated, plain = (runner_module.start(config, np.float64) for _ in range(2))
    for _ in range(2):
        evaluated.step(), plain.step()
    evaluated.evaluate()
    (stats, grads), (plain_stats, plain_grads) = evaluated.step(), plain.step()
    assert stats == plain_stats
    assert grads.keys() == plain_grads.keys()
    for name, g in grads.items():
        assert g.tobytes() == plain_grads[name].tobytes(), name
    for name in ("batch", "sender", "branching"):
        assert (evaluated.streams[name].bit_generator.state
                == plain.streams[name].bit_generator.state), name


def test_preflight_passes_every_benchmark_workload_and_test_preset(monkeypatch):
    # with 1 GiB available: benchmark runs are float32, tier-1 runs may be float64
    monkeypatch.setattr(runner_module, "available_memory_mb", lambda: 1024.0)
    workloads = _benchmark_workloads(monkeypatch)
    assert len(workloads) == 3
    configs = [(resolve_preset(w.preset, **w.overrides), 4) for w in workloads]
    configs += [
        (resolve_preset(name, k=k), 8) for name in ("smoke-attrval", "smoke-dyck") for k in (1, 4)
    ]
    configs.append((tiny_config(), 8))
    for config, itemsize in configs:
        assert memory_refusal(config, itemsize) is None, config.preset


def test_eval_knobs_do_not_touch_training(tmp_path):
    # eval_draws only drives evaluation streams; the trajectory is unchanged
    r1 = run(tiny_config(seed=9, eval_draws=1), out_dir=tmp_path / "a")
    r3 = run(tiny_config(seed=9, eval_draws=3), out_dir=tmp_path / "b")
    for a, b in zip(r1.records, r3.records):
        assert a.comacc_train == b.comacc_train
        assert a.recon_loss == b.recon_loss
        assert a.entropy == b.entropy


def test_run_random_strategy_uses_branching_stream(tmp_path):
    result = run(tiny_config(strategy="random", iterations=3), out_dir=tmp_path / "r")
    assert not result.failed
    assert len(result.records) == 1


# ---------------------------------------------------------------------------
# sweep()


def small_sweep(root, jobs=1):
    return sweep(
        "smoke-attrval",
        strategies=("learned", "left"),
        seeds=2,
        jobs=jobs,
        out_root=root,
        overrides=dict(
            n_val=3, hidden=16, embedding=8, batch_size=16, iterations=4, eval_every=2
        ),
    )


def test_sweep_layout_and_aggregate(tmp_path):
    rows = small_sweep(tmp_path / "sw")
    run_rows = [r for r in rows if r["kind"] == "run"]
    stat_rows = [r for r in rows if r["kind"] in ("mean", "std")]
    assert len(run_rows) == 4 and len(stat_rows) == 4
    assert [(r["strategy"], r["seed"]) for r in run_rows] == [
        ("learned", 0),
        ("learned", 1),
        ("left", 0),
        ("left", 1),
    ]
    for strategy in ("learned", "left"):
        for seed in (0, 1):
            d = tmp_path / "sw" / f"smoke-attrval-{strategy}-s{seed}"
            assert (d / "summary.json").exists()
    with open(tmp_path / "sw" / "aggregate.csv") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 8
    assert table[0]["strategy"] == "learned" and table[0]["kind"] == "run"
    means = [r for r in table if r["kind"] == "mean"]
    assert {r["strategy"] for r in means} == {"learned", "left"}
    assert all(r["kept"] == "2" for r in means)


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.delenv("ECLAB_DETERMINISTIC", raising=False)
    small_sweep(tmp_path / "serial", jobs=1)
    small_sweep(tmp_path / "par", jobs=2)

    def without_peak_rss(name):
        # a run's peak RSS is measured, so it differs between any two sweeps
        # (it is 0 in the deterministic-mode test, which compares every byte)
        with open(tmp_path / name / "aggregate.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("peak_rss_mb")
        assert all(float(r[col]) > 0 for r in rows[1:] if r[rows[0].index("kind")] == "run")
        return [row[:col] + row[col + 1 :] for row in rows]

    assert without_peak_rss("serial") == without_peak_rss("par")


def test_sweep_needs_seeds():
    with pytest.raises(RunnerError, match="at least one seed"):
        sweep("smoke-attrval", seeds=[], out_root="unused")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(jobs=0), "jobs must be >= 1, got 0"),
        (dict(jobs=-3), "jobs must be >= 1, got -3"),
        (dict(strategies=()), "need at least one strategy"),
        (dict(strategies=("learned", "left", "learned")), "repeated strategy or seed"),
        (dict(seeds=[1, 2, 1]), "repeated strategy or seed"),
        (dict(overrides=dict(seed=3)), "cannot override 'seed'"),
        (dict(overrides=dict(strategy="left")), "cannot override 'strategy'"),
    ],
)
def test_sweep_rejects_a_grid_it_cannot_run(tmp_path, kwargs, message):
    with pytest.raises(RunnerError, match=message):
        sweep("smoke-attrval", **{"seeds": 1, "out_root": tmp_path / "sw", **kwargs})
    assert not (tmp_path / "sw").exists()


def test_sweep_refuses_a_bad_cap_before_it_starts_a_child(tmp_path):
    with pytest.raises(GameError, match="k_u must be > 0, got 0"):
        sweep("smoke-attrval", strategies=("learned",), seeds=1, out_root=tmp_path / "sw",
              overrides={"k_u": 0})
    assert not (tmp_path / "sw").exists()


def test_sweep_checks_its_space_with_the_code_that_starts_a_run(tmp_path, monkeypatch):
    # a space split_space cannot build stops a run and, before any child, a sweep
    def refuse(config):
        raise RunnerError(f"no split for seed {config.seed}")

    monkeypatch.setattr(runner_module, "split_space", refuse)
    with pytest.raises(RunnerError, match="no split for seed 0"):
        runner_module.start(tiny_config(), np.float64)
    with pytest.raises(RunnerError, match="no split for seed 0"):
        sweep("smoke-attrval", seeds=1, out_root=tmp_path / "sw")
    assert not (tmp_path / "sw").exists()


def test_sweep_survives_a_killed_child(tmp_path, fake_child, monkeypatch):
    monkeypatch.delenv("ECLAB_DETERMINISTIC", raising=False)
    prefix = fake_child("if seed == 1:\n    os.kill(os.getpid(), signal.SIGKILL)")
    root = tmp_path / "sw"
    rows = sweep(
        "smoke-attrval",
        strategies=("learned",),
        seeds=3,
        jobs=2,
        out_root=root,
        overrides=dict(n_val=3, hidden=16, embedding=8, batch_size=16, iterations=4, eval_every=2),
        child_prefix=prefix,
    )
    runs = [r for r in rows if r["kind"] == "run"]
    assert [(r["seed"], r["failed"], r["error"]) for r in runs] == [
        (0, False, ""),
        (1, True, "killed by signal 9"),
        (2, False, ""),
    ]
    summary = json.loads((root / "smoke-attrval-learned-s1" / "summary.json").read_text())
    assert summary["failed"] is True and summary["kept"] is False
    assert summary["error"] == "killed by signal 9"
    assert summary["iterations_done"] == 0
    assert summary["peak_rss_mb"] > 0.0  # from the killed child's wait4 rusage
    for seed in (0, 2):
        summary = json.loads((root / f"smoke-attrval-learned-s{seed}" / "summary.json").read_text())
        assert summary["iterations_done"] == 4 and not summary["failed"]
        assert summary["peak_rss_mb"] > 0.0
    with open(root / "aggregate.csv") as fh:
        table = list(csv.DictReader(fh))
    assert [(r["kind"], r["failed"]) for r in table[:3]] == [
        ("run", "False"), ("run", "True"), ("run", "False")
    ]
    assert table[1]["error"] == "killed by signal 9"
    assert all(float(r["peak_rss_mb"]) > 0.0 for r in table[:3])
    assert all(r["peak_rss_mb"] == "" for r in table[3:])
    assert [r["kept"] for r in table[3:]] == ["2", "2"]


def test_sweep_kills_and_reaps_its_children_when_it_raises(tmp_path, fake_child, monkeypatch):
    # seed 0 ends at once; the sweep then raises while seed 1 still runs
    prefix = fake_child("time.sleep(0 if seed == 0 else 60)\nsys.exit(3)")

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_module, "_reap", interrupt)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sweep("smoke-attrval", strategies=("learned",), seeds=2, jobs=2,
              out_root=tmp_path / "sw", child_prefix=prefix)
    assert time.monotonic() - started < 30  # seed 1 was killed, not waited for
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_sweep_writes_the_exit_code_and_last_log_line_of_a_failed_child(tmp_path, fake_child):
    prefix = fake_child(
        "print('first line', flush=True)\nprint('last words', file=sys.stderr)\nsys.exit(7)"
    )
    rows = sweep("smoke-attrval", strategies=("left",), seeds=1, out_root=tmp_path / "sw",
                 child_prefix=prefix)
    assert rows[0]["failed"] is True
    assert rows[0]["error"] == "exit code 7: last words"
    log = (tmp_path / "sw" / "smoke-attrval-left-s0" / "child.log").read_text()
    assert log == "first line\nlast words\n"


# ---------------------------------------------------------------------------
# report()


def test_report_writes_svg_and_csv(tmp_path):
    small_sweep(tmp_path / "sw")
    files = report([tmp_path / "sw"], tmp_path / "rep")
    names = sorted(f.rsplit("/", 1)[-1] for f in files)
    assert "attrval-2x3_comacc_train.svg" in names
    assert "attrval-2x3_comacc_test.csv" in names
    # beta off -> log-prior columns are all-nan and therefore skipped
    assert not any("log_prior" in n for n in names)
    svg = (tmp_path / "rep" / "attrval-2x3_comacc_train.svg").read_text()
    ET.fromstring(svg)
    assert svg.count("<polyline") == 2  # one series per strategy
    assert svg.count("<polygon") == 2  # min/max band per strategy
    with open(tmp_path / "rep" / "attrval-2x3_comacc_train.csv") as fh:
        table = list(csv.reader(fh))
    assert table[0] == [
        "iteration",
        "learned_mean",
        "learned_lo",
        "learned_hi",
        "left_mean",
        "left_lo",
        "left_hi",
    ]
    assert [row[0] for row in table[1:]] == ["2", "4"]
    lo, mean, hi = float(table[1][2]), float(table[1][1]), float(table[1][3])
    assert lo <= mean <= hi


def test_report_is_deterministic(tmp_path):
    small_sweep(tmp_path / "sw")
    report([tmp_path / "sw"], tmp_path / "rep1")
    report([tmp_path / "sw"], tmp_path / "rep2")
    name = "attrval-2x3_comacc_train.svg"
    assert (tmp_path / "rep1" / name).read_bytes() == (tmp_path / "rep2" / name).read_bytes()


def test_report_accepts_run_dirs_directly(tmp_path):
    run(tiny_config(), out_dir=tmp_path / "single")
    files = report([tmp_path / "single"], tmp_path / "rep")
    assert files
    svg = (tmp_path / "rep" / "attrval-2x3_comacc_train.svg").read_text()
    assert svg.count("<polyline") == 1


def test_report_rejects_empty_input(tmp_path):
    (tmp_path / "hollow").mkdir()
    with pytest.raises(RunnerError, match="no run"):
        report([tmp_path / "hollow"], tmp_path / "rep")
    with pytest.raises(RunnerError, match="no input"):
        report([], tmp_path / "rep")


def test_report_skips_excluded_runs(tmp_path):
    run(tiny_config(seed=0), out_dir=tmp_path / "keep")
    run(tiny_config(seed=1), out_dir=tmp_path / "drop")
    summary_path = tmp_path / "drop" / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["kept"] = False
    summary_path.write_text(json.dumps(summary))
    report([tmp_path / "keep", tmp_path / "drop"], tmp_path / "rep")
    svg = (tmp_path / "rep" / "attrval-2x3_comacc_train.svg").read_text()
    assert svg.count("<polyline") == 1
    with pytest.raises(RunnerError, match="nothing to plot"):
        report([tmp_path / "drop"], tmp_path / "rep2")


@pytest.mark.parametrize("tail", ["", "4,0.5"], ids=["one-row", "half-written-row"])
def test_report_skips_a_run_that_never_finished(tmp_path, tail):
    # a killed run leaves config.json and a short metrics.csv, but no summary.json
    root = tmp_path / "runs"
    for seed in (0, 1):
        run(tiny_config(seed=seed), out_dir=root / f"s{seed}")
    killed = root / "killed"
    killed.mkdir()
    (killed / "config.json").write_text((root / "s0" / "config.json").read_text())
    header, first, _ = (root / "s0" / "metrics.csv").read_text().splitlines(keepends=True)
    (killed / "metrics.csv").write_text(header + first + tail)
    report([root], tmp_path / "rep")
    with open(tmp_path / "rep" / "attrval-2x3_comacc_train.csv") as fh:
        table = list(csv.reader(fh))
    assert [row[0] for row in table[1:]] == ["3", "6"]
    want = np.mean([[r.comacc_train for r in read_metrics(root / f"s{seed}" / "metrics.csv")]
                    for seed in (0, 1)], axis=0)
    assert [float(row[1]) for row in table[1:]] == want.tolist()


def test_report_keeps_beta_off_and_rewo_runs_of_one_space_apart(tmp_path):
    run(tiny_config(), out_dir=tmp_path / "off")
    run(tiny_config(beta_mode="rewo"), out_dir=tmp_path / "rewo")
    summary_path = tmp_path / "rewo" / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["kept"] = True  # a run this short never passes the rewo filter
    summary_path.write_text(json.dumps(summary))
    files = report([tmp_path / "off", tmp_path / "rewo"], tmp_path / "rep")
    names = sorted(f.rsplit("/", 1)[-1] for f in files)
    assert {n.split("_", 1)[0] for n in names} == {"attrval-2x3", "attrval-2x3-rewo"}
    assert {n for n in names if "log_prior" in n} == {
        f"attrval-2x3-rewo_mean_log_prior_{split}.{ext}"
        for split in ("train", "test") for ext in ("svg", "csv")
    }
    # each group's learned series is its one run, not the mean of both
    for label, run_dir in (("attrval-2x3", "off"), ("attrval-2x3-rewo", "rewo")):
        with open(tmp_path / "rep" / f"{label}_comacc_train.csv") as fh:
            table = list(csv.reader(fh))
        want = [repr(r.comacc_train) for r in read_metrics(tmp_path / run_dir / "metrics.csv")]
        assert [row[1] for row in table[1:]] == want


@pytest.mark.parametrize("other_strategy", ["learned", "left"], ids=["within", "across"])
def test_report_rejects_runs_on_different_evaluation_grids(tmp_path, other_strategy):
    run(tiny_config(iterations=2, eval_every=1), out_dir=tmp_path / "a")
    run(tiny_config(iterations=2, eval_every=2, strategy=other_strategy), out_dir=tmp_path / "b")
    with pytest.raises(RunnerError, match="disagree on evaluation iterations"):
        report([tmp_path / "a", tmp_path / "b"], tmp_path / "rep")
