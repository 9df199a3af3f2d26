"""``tools/grad_hash.py`` prints one sha256 per training case, over its
steps and the evaluation after them, the same on every run of one tree."""

import importlib.util
import itertools
import pathlib
import re

import numpy as np
import pytest

from eclab import agents, diffengine, runner

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "grad_hash.py"
spec = importlib.util.spec_from_file_location("grad_hash", SCRIPT)
grad_hash = importlib.util.module_from_spec(spec)
spec.loader.exec_module(grad_hash)


def test_prints_one_stable_digest_per_case(capsys):
    outputs = []
    for _ in range(2):
        assert grad_hash.main() == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = [line.split() for line in outputs[0].splitlines()]
    cases = itertools.product(
        ("smoke-attrval", "smoke-dyck"),
        ("learned", "left", "random"),
        ("off", "rewo"),
        ("float32", "float64"),
    )
    assert [line[:4] for line in lines] == [list(case) for case in cases]
    digests = [line[4] for line in lines]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
    assert len(set(digests)) == 24  # every case computes something different


def test_save_then_against_one_tree_prints_zero_for_every_case(tmp_path, capsys):
    path = tmp_path / "tree.npz"
    assert grad_hash.main(["--save", str(path)]) == 0
    saved = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert grad_hash.main(["--against", str(path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:5] for line in lines] == saved  # the sha256 lines stay
    assert [line[5] for line in lines] == ["0.0"] * 24
    # each case's evaluation: the train and test ComAcc, then under rewo the
    # train and test mean log prior
    arrays = np.load(path)
    evals = {key.rsplit("/", 1)[0]: arrays[key] for key in arrays.files if key.endswith("/eval")}
    assert len(evals) == 24
    for case, values in evals.items():
        assert len(values) == (4 if "/rewo/" in case else 2), case
        assert all(0.0 <= v <= 1.0 for v in values[:2])
        assert all(np.isfinite(v) and v < 0.0 for v in values[2:])
    assert any(values[0] > 0.0 for values in evals.values())


def test_max_rel_diff_scales_by_the_saved_array():
    saved = {"0/w": np.array([2.0, -4.0]), "0/stats": np.array([1.0, np.nan])}
    assert grad_hash.max_rel_diff({k: v.copy() for k, v in saved.items()}, saved) == 0.0
    assert grad_hash.max_rel_diff({"0/w": np.array([2.0, -3.0])}, saved) == 0.25
    assert grad_hash.max_rel_diff({"0/stats": np.array([1.0, 0.0])}, saved) == np.inf
    assert grad_hash.max_rel_diff({"0/w": np.array([2.0, -4.0, 0.0])}, saved) == np.inf


def test_the_digest_covers_the_evaluation(monkeypatch):
    case = ("smoke-attrval", "learned", "rewo", np.float64)
    digest, arrays = grad_hash.run_case(*case)
    evaluate = runner.RunState.evaluate

    def moved(state):
        values = evaluate(state)
        values["mean_log_prior_test"] += 1e-12
        return values

    monkeypatch.setattr(runner.RunState, "evaluate", moved)
    other, other_arrays = grad_hash.run_case(*case)
    assert other != digest
    assert grad_hash.max_rel_diff(other_arrays, arrays) > 0.0


def test_the_digest_covers_the_greedy_messages(monkeypatch):
    # ComAcc is 0 on both splits here, so only the greedy arrays show the move
    case = ("smoke-dyck", "learned", "off", np.float64)
    digest, arrays = grad_hash.run_case(*case)
    assert arrays["eval"].tolist() == [0.0, 0.0]
    emit = agents.Sender.emit

    def moved(sender, state, mode="sample", rng=None):
        out = emit(sender, state, mode, rng)
        if mode == "greedy":
            # the first content symbol of the first message longer than one
            # symbol becomes another content symbol: still a valid message
            b = int(np.argmax(out.batch.lengths > 1))
            assert out.batch.lengths[b] > 1
            out.batch.symbols[b, 0] = out.batch.symbols[b, 0] % (sender.vocab - 1) + 1
        return out

    monkeypatch.setattr(agents.Sender, "emit", moved)
    other, other_arrays = grad_hash.run_case(*case)
    assert other != digest
    assert other_arrays["eval"].tolist() == [0.0, 0.0]
    assert grad_hash.max_rel_diff(other_arrays, arrays) > 0.0
    moved_keys = [
        k for k in arrays if not np.array_equal(arrays[k], other_arrays[k], equal_nan=True)
    ]
    assert "greedy/train/symbols" in moved_keys
    assert all(k.startswith("greedy/") for k in moved_keys)


def test_against_lists_the_arrays_only_one_side_has(tmp_path, capsys, monkeypatch):
    # a file saved by a copy of this script with other arrays compares on
    # the arrays both sides have
    case = ("smoke-attrval", "left", "off", np.float32)
    monkeypatch.setattr(grad_hash, "PRESETS", case[:1])
    monkeypatch.setattr(grad_hash, "STRATEGIES", case[1:2])
    monkeypatch.setattr(grad_hash, "BETA_MODES", case[2:3])
    monkeypatch.setattr(grad_hash, "DTYPES", case[3:])
    path, older = tmp_path / "tree.npz", tmp_path / "older.npz"
    assert grad_hash.main(["--save", str(path)]) == 0
    prefix = "smoke-attrval/left/off/float32/"
    arrays = dict(np.load(path))
    arrays[prefix + "gone"] = np.zeros(2)
    np.savez(older, **{k: a for k, a in arrays.items() if "/greedy/test/" not in k})
    capsys.readouterr()
    assert grad_hash.main(["--against", str(older)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.split()[5:] == [
        "0.0", "+greedy/test/decoded", "+greedy/test/lengths", "+greedy/test/symbols", "-gone",
    ]


@pytest.mark.parametrize(
    "case", [("smoke-dyck", "learned", "rewo"), ("smoke-attrval", "random", "off")],
    ids="-".join,
)
def test_digest_does_not_depend_on_the_block_size(case, monkeypatch):
    # the LSTM gates, Adam and backward's sums all run at the default block
    # size and then one leading-axis row per block
    default = grad_hash.run_case(*case, np.float32)[0]
    monkeypatch.setattr(diffengine, "_BLOCK_BYTES", 1)
    assert grad_hash.run_case(*case, np.float32)[0] == default
