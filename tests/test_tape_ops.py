"""``tools/tape_ops.py`` counts the records of one training step, the rows
they hold and the memory they keep, by op."""

import importlib.util
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eclab import diffengine as de
from eclab import game, runner
from eclab.agents import NodeState, TokenSeqEncoder

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "tape_ops.py"
spec = importlib.util.spec_from_file_location("tape_ops", SCRIPT)
tape_ops = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tape_ops)


def _table(capsys, preset, *sets):
    before = {module: dict(vars(module)) for module in (de, game)}
    assert tape_ops.main([preset, *(a for s in sets for a in ("--set", s))]) == 0
    # the tool leaves the engine and the game as it found them
    for module, attrs in before.items():
        after = vars(module)
        assert after.keys() == attrs.keys() and all(after[k] is v for k, v in attrs.items())
    table, mb = {}, {}
    for line in capsys.readouterr().out.splitlines():
        op, records, rows, held = line.split()
        table[op], mb[op] = (int(records), int(rows)), float(held)
    cells = [op for op in table if op.startswith("lstm_cell:")]
    # the split by cell adds up to the lstm_cell line, records and rows
    assert tuple(map(sum, zip(*(table[op] for op in cells)))) == table["lstm_cell"]
    assert sum(mb[op] for op in cells) == pytest.approx(mb["lstm_cell"], abs=0.005 * (len(cells) + 1))
    ops = {op: v for op, v in table.items() if op not in cells and op != "total"}
    assert table["total"] == tuple(map(sum, zip(*ops.values())))
    # each MB is rounded to 0.01 on its own
    assert mb["total"] == pytest.approx(sum(mb[op] for op in ops), abs=0.005 * (len(ops) + 1))
    return table


def test_log_likelihoods_are_categorical_records(capsys):
    table = _table(capsys, "smoke-attrval", "batch_size=16", "hidden=16", "beta_mode=rewo")
    # log S and H, log R, log P: one record each, with a [B] first output
    assert table["categorical"] == (3, 3 * 16)
    assert not {"log_softmax", "take_last", "softmax", "sum_last"} & set(table)
    # a 0-d output counts one row
    assert table["reduce_mean"][1] == table["reduce_mean"][0]


def _row_level_encode(self, meanings):
    # the sender's Dyck encoder run once per row, as before prefix sharing
    tokens, lengths = self.space.rows(meanings)
    n = len(lengths)
    h = de.add_bias(de.zeros((n, self.h0.shape[0]), dtype=self.dtype), self.h0)
    c = de.add_bias(de.zeros((n, self.c0.shape[0]), dtype=self.dtype), self.c0)
    for t in range(int(lengths.max())):
        h, c = self.cell.step(self.emb(tokens[:, t]), h, c, t < lengths)
    return NodeState(h, c, np.arange(n))


def test_lstm_cell_rows_drop_by_the_shared_word_prefixes(capsys, monkeypatch):
    sets = ("batch_size=64", "hidden=16", "beta_mode=off")
    words, encode = [], TokenSeqEncoder.__call__

    def recording(self, meanings):
        words.extend(meanings)
        return encode(self, meanings)

    monkeypatch.setattr(TokenSeqEncoder, "__call__", recording)
    shared = _table(capsys, "smoke-dyck", *sets)
    monkeypatch.setattr(TokenSeqEncoder, "__call__", _row_level_encode)
    per_row = _table(capsys, "smoke-dyck", *sets)
    assert len(words) == 64
    steps = max(map(len, words))
    nodes = sum(len({(w[: t + 1], len(w) > t) for w in words}) for t in range(steps))
    # as many records, and the encoder's rows fall from 64 per step to the
    # distinct prefixes of each step
    encoder = "lstm_cell:sender.encoder.cell"
    assert shared["lstm_cell"][0] == per_row["lstm_cell"][0]
    assert shared[encoder][0] == per_row[encoder][0] == steps
    assert per_row[encoder][1] - shared[encoder][1] == 64 * steps - nodes > 0


@pytest.mark.parametrize("preset", ["smoke-attrval", "smoke-dyck"])
def test_lstm_cell_records_hold_no_more_than_their_gates_and_outputs(preset, monkeypatch):
    # what a record may keep: its [n_live, 4H] gates and its two [B, H]
    # outputs, plus 4 KiB for its tuple, tensors and closures
    allowed = []
    cell = de.lstm_cell

    def sized(x, h, c, W, b, alive=None, parent=None):
        # a step's rows are its inputs' (the parent index regroups h and c into them)
        n_live = x.shape[0] if alive is None else int(np.count_nonzero(alive))
        allowed.append((n_live * 4 + 2 * x.shape[0]) * h.shape[1] * h.data.itemsize + 4096)
        return cell(x, h, c, W, b, alive, parent)

    monkeypatch.setattr(de, "lstm_cell", sized)
    config = replace(runner.resolve_preset(preset), batch_size=64, hidden=64)
    counts, _, held, _ = tape_ops.count_ops(config)
    assert counts["lstm_cell"] == len(allowed) > 0
    assert 0 < held["lstm_cell"] <= sum(allowed)


@pytest.mark.parametrize(
    "preset,cells",
    [
        ("smoke-attrval", ["sender.cell", "receiver.cell"]),
        ("smoke-dyck", ["sender.encoder.cell", "sender.cell", "receiver.cell", "receiver.dec_cell"]),
    ],
)
def test_lstm_cell_rows_split_by_cell(capsys, preset, cells):
    table = _table(capsys, preset, "batch_size=32", "hidden=16")  # checks the sums
    assert [op for op in table if op.startswith("lstm_cell:")] == [f"lstm_cell:{c}" for c in cells]


def test_no_op_holds_negative_memory_and_a_failed_step_restores_backward(capsys, monkeypatch):
    # the bytes between two records used to count to the later one, so an op
    # whose records free more than they keep (mul on smoke-dyck) read < 0
    assert tape_ops.main(["smoke-dyck"]) == 0
    held = [float(line.split()[3]) for line in capsys.readouterr().out.splitlines()]
    assert len(held) > 10 and min(held) >= 0
    backward = game.backward

    def failing(*args, **kwargs):
        raise RuntimeError("the step fails")

    monkeypatch.setattr(runner, "play_batch", failing)
    with pytest.raises(RuntimeError, match="the step fails"):
        tape_ops.count_ops(runner.resolve_preset("smoke-dyck"))
    assert game.backward is backward


# tracemalloc's growth over the forward exceeds the buffers the tape holds by
# the Python objects of the step (records, tensors, closures), the batch and
# the walk's own set of ids: 0.38-0.43 MB on smoke-attrval as it stands, and
# 0.26-0.51 MB over nine smoke configs (seeds, strategies, rewo, batch 64-256)
TRACEMALLOC_SLACK_MB = 0.75


def test_held_bytes_agree_with_tracemalloc_over_the_same_forward(monkeypatch):
    play, backward, grown = runner.play_batch, game.backward, []

    def traced_play(*args, **kwargs):
        tracemalloc.start()
        try:
            return play(*args, **kwargs)
        finally:
            tracemalloc.stop()

    def traced_backward(*args, **kwargs):  # the forward ends here
        grown.append(tracemalloc.get_traced_memory()[0])
        return backward(*args, **kwargs)

    monkeypatch.setattr(runner, "play_batch", traced_play)
    monkeypatch.setattr(game, "backward", traced_backward)
    _, _, held, _ = tape_ops.count_ops(runner.resolve_preset("smoke-attrval"))
    total = sum(held.values())
    assert len(grown) == 1
    assert total <= grown[0] <= total + TRACEMALLOC_SLACK_MB * 2**20
