import csv
import json
import os
import subprocess
import sys

import pytest

from eclab.cli import main

TINY_SETS = [
    "--set", "n_val=3",
    "--set", "hidden=16",
    "--set", "embedding=8",
    "--set", "batch_size=16",
    "--set", "iterations=4",
    "--set", "eval_every=2",
]


def test_preset_command_prints_json(capsys):
    assert main(["preset", "exp1-dyck-k1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hidden"] == 512
    assert out["k"] == 1 and out["l_max"] == 18
    assert out["iterations"] == 15000


def test_preset_command_unknown_name(capsys):
    assert main(["preset", "bogus"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_run_print_config_with_overrides(capsys):
    rc = main(
        ["run", "--preset", "smoke-attrval", "--seed", "9", "--set", "hidden=24", "--print-config"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["preset"] == "smoke-attrval"
    assert out["hidden"] == 24
    assert out["seed"] == 9


def test_run_rejects_bad_override(capsys):
    assert main(["run", "--set", "hiden=3", "--print-config"]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert main(["run", "--set", "hidden", "--print-config"]) == 2


@pytest.mark.parametrize(
    "setting", ["batch_size=0", "hidden=0", "embedding=0", "max_len=0", "vocab=1"]
)
def test_run_rejects_impossible_sizes_before_making_the_run_directory(tmp_path, capsys, setting):
    out = tmp_path / "r"
    assert main(["run", "--preset", "smoke-attrval", "--out", str(out), "--set", setting]) == 2
    assert f"error: {setting.split('=')[0]} must be >=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting",
    ["lr=-1", "lr=0", "l2=-5", "baseline_decay=2", "rewo_ema_decay=3", "beta0=0", "beta0=2"],
)
def test_run_rejects_out_of_range_settings_before_making_the_run_directory(
    tmp_path, capsys, setting
):
    out = tmp_path / "r"
    args = ["run", "--preset", "smoke-attrval", "--out", str(out), "--set", "beta_mode=rewo"]
    assert main(args + ["--set", setting]) == 2
    assert f"error: {setting.split('=')[0]} must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "preset,setting",
    [
        ("smoke-attrval", "n_att=0"),
        ("smoke-attrval", "n_val=1"),
        ("smoke-attrval", "n_val=2000"),
        ("smoke-attrval", "k_u=0"),
        ("smoke-attrval", "random_resample=bogus"),
        ("smoke-dyck", "k=0"),
        ("smoke-dyck", "l_max=1"),
    ],
)
def test_run_rejects_unbuildable_configs_before_making_the_run_directory(
    tmp_path, capsys, preset, setting
):
    # the meaning space or the agents refuse these, not RunConfig
    out = tmp_path / "r"
    assert main(["run", "--preset", preset, "--out", str(out), "--set", setting]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_rejects_config_plus_preset(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    assert main(["run", "--config", str(cfg), "--preset", "smoke-attrval"]) == 2
    assert "not both" in capsys.readouterr().err


def test_run_end_to_end(tmp_path, capsys):
    rc = main(
        ["run", "--preset", "smoke-attrval", "--seed", "1", "--out", str(tmp_path / "r")]
        + TINY_SETS
    )
    assert rc == 0
    assert "run ok:" in capsys.readouterr().out
    assert (tmp_path / "r" / "metrics.csv").exists()


def test_run_refused_by_the_memory_preflight_exits_1(tmp_path, capsys, monkeypatch):
    from eclab import runner

    monkeypatch.setattr(runner, "available_memory_mb", lambda: 64.0)
    rc = main(["run", "--preset", "smoke-attrval", "--out", str(tmp_path / "r")] + TINY_SETS)
    assert rc == 1
    assert "run FAILED: memory preflight" in capsys.readouterr().err
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["failed"] is True and summary["iterations_done"] == 0
    assert not (tmp_path / "r" / "metrics.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_run_whose_reward_goes_non_finite_exits_1_and_keeps_its_rows(
    tmp_path, capsys, monkeypatch
):
    # lr = 1e30 blows the float32 parameters up; the third batch's log R overflows
    monkeypatch.delenv("ECLAB_DETERMINISTIC", raising=False)
    out = tmp_path / "r"
    rc = main(
        [
            "run", "--preset", "smoke-attrval", "--out", str(out),
            "--set", "hidden=8", "--set", "batch_size=8", "--set", "iterations=5",
            "--set", "eval_every=1", "--set", "lr=1e30",
        ]
    )
    assert rc == 1
    assert "run FAILED: non-finite reward | details: {'bad_log_r': 8," in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] is True and summary["kept"] is False
    assert summary["iterations_done"] == 2
    assert summary["error"].startswith("non-finite reward | details: {'bad_log_r': 8,")
    with open(out / "metrics.csv") as fh:
        assert [row["iteration"] for row in csv.DictReader(fh)] == ["1", "2"]


def test_run_from_config_file(tmp_path, capsys):
    base = main(["run", "--preset", "smoke-attrval", "--print-config"] + TINY_SETS)
    assert base == 0
    config = json.loads(capsys.readouterr().out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "r"), "--seed", "3"])
    assert rc == 0
    written = json.loads((tmp_path / "r" / "config.json").read_text())
    assert written["seed"] == 3
    assert written["n_val"] == 3


def test_sweep_and_report_commands(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--preset", "smoke-attrval",
            "--strategies", "learned,left",
            "--seeds", "1",
            "--out", str(tmp_path / "sw"),
        ]
        + TINY_SETS
    )
    assert rc == 0
    assert "sweep done: 2 runs (0 failed)" in capsys.readouterr().out
    assert (tmp_path / "sw" / "aggregate.csv").exists()
    rc = main(["report", "--in", str(tmp_path / "sw"), "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    assert list((tmp_path / "rep").glob("*.svg"))


def test_sweep_whose_run_raises_records_it_and_exits_1(tmp_path, capsys):
    # a space of one meaning cannot be split, so the run raises inside the sweep
    out = tmp_path / "sw"
    rc = main(
        [
            "sweep", "--preset", "smoke-attrval", "--strategies", "learned",
            "--seeds", "1", "--out", str(out),
        ]
        + TINY_SETS
        + ["--set", "n_val=1"]  # the last --set of a key wins
    )
    assert rc == 1
    assert "sweep done: 1 runs (1 failed)" in capsys.readouterr().out
    with open(out / "aggregate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["kind"] for r in rows] == ["run", "mean", "std"]
    assert rows[0]["failed"] == "True" and rows[0]["kept"] == "False"
    assert rows[0]["error"] == "MeaningError: cannot split a space of size 1"
    assert [r["kept"] for r in rows[1:]] == ["0", "0"]


def test_report_over_dyck_runs_names_files_by_the_dyck_space(tmp_path, capsys):
    sets = ["--set", "hidden=8", "--set", "embedding=4", "--set", "batch_size=8"]
    sets += ["--set", "iterations=2", "--set", "eval_every=1"]
    rc = main(
        ["sweep", "--preset", "smoke-dyck", "--strategies", "learned", "--seeds", "1"]
        + ["--out", str(tmp_path / "sw")]
        + sets
    )
    assert rc == 0
    assert main(["report", "--in", str(tmp_path / "sw"), "--out", str(tmp_path / "rep")]) == 0
    assert sorted(p.name for p in (tmp_path / "rep").iterdir()) == [
        f"dyck-k4-lmax8_{metric}.{ext}"
        for metric in ("comacc_test", "comacc_train")
        for ext in ("csv", "svg")
    ]


def test_module_entry_point_deterministic_rerun(tmp_path, deterministic_env):
    """python -m eclab with ECLAB_DETERMINISTIC=1 is byte-stable across processes."""
    args = [
        sys.executable, "-m", "eclab", "run",
        "--preset", "smoke-attrval", "--seed", "2",
    ] + TINY_SETS
    proc_a = subprocess.run(
        args + ["--out", str(tmp_path / "a")],
        env=deterministic_env,
        capture_output=True,
        text=True,
    )
    proc_b = subprocess.run(
        args + ["--out", str(tmp_path / "b")],
        env=deterministic_env,
        capture_output=True,
        text=True,
    )
    assert proc_a.returncode == 0, proc_a.stderr
    assert proc_b.returncode == 0, proc_b.stderr
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b


@pytest.fixture
def thread_env(monkeypatch):
    """No thread variable set, and 8 CPUs to share."""
    from eclab import cli

    for var in cli._THREAD_VARS + ("ECLAB_DETERMINISTIC",):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    return cli


@pytest.mark.parametrize("jobs, want", [(1, None), (3, "2"), (8, "1"), (16, "1")])
def test_sweep_jobs_pin_threads_per_worker(thread_env, monkeypatch, jobs, want):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "5")  # set by the user: kept
    thread_env._pin_threads_for_jobs(jobs)
    for var in thread_env._THREAD_VARS:
        expected = "5" if var == "OPENBLAS_NUM_THREADS" else want
        assert os.environ.get(var) == expected, var


def test_sweep_command_pins_threads_before_running(thread_env, monkeypatch, capsys):
    from eclab import runner

    seen = {}

    def fake_sweep(*args, **kwargs):
        seen.update({var: os.environ.get(var) for var in thread_env._THREAD_VARS})
        return []

    monkeypatch.setattr(runner, "sweep", fake_sweep)
    assert main(["sweep", "--preset", "smoke-attrval", "--jobs", "4"]) == 0
    assert seen == {var: "2" for var in thread_env._THREAD_VARS}
