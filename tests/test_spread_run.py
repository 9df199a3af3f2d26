"""``tools/spread_run.py`` runs ``eclab run`` with full-length, uniformly
drawn messages."""

import importlib.util
import json
import pathlib

import numpy as np

from eclab import runner
from eclab.agents import EOS
from eclab.game import build_agents

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "spread_run.py"
spec = importlib.util.spec_from_file_location("spread_run", SCRIPT)
spread_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spread_run)


def test_spread_sender_emits_full_length_uniform_messages():
    config = runner.resolve_preset("smoke-dyck")
    space = runner.build_space(config)
    sender, _ = build_agents(space, config, np.random.default_rng(0))
    spread_run.spread_sender(sender)
    meanings = space.meanings[:50] * 40
    batch = sender.emit(sender.encode(meanings), rng=np.random.default_rng(1)).batch
    assert (batch.lengths == config.max_len).all()
    assert (batch.symbols != EOS).all()
    counts = np.bincount(batch.symbols.ravel(), minlength=config.vocab)[1:]
    assert counts.min() > 0.9 * counts.mean()  # uniform over the content symbols


def test_main_runs_and_restores_the_runner(tmp_path):
    build = runner.build_agents
    out = tmp_path / "r"
    sets = ["--set", "iterations=1", "--set", "eval_every=1", "--set", "batch_size=16"]
    assert spread_run.main(["--preset", "smoke-attrval", "--out", str(out), *sets]) == 0
    assert json.loads((out / "summary.json").read_text())["iterations_done"] == 1
    assert runner.build_agents is build
