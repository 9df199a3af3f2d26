"""``tools/tape_ops.py`` counts the records of one training step by op."""

import importlib.util
import pathlib

from eclab import diffengine as de

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "tape_ops.py"
spec = importlib.util.spec_from_file_location("tape_ops", SCRIPT)
tape_ops = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tape_ops)


def test_log_likelihoods_are_categorical_records(capsys):
    finish = de._finish
    sets = ["batch_size=16", "hidden=16", "beta_mode=rewo"]
    assert tape_ops.main(["smoke-attrval", *(a for s in sets for a in ("--set", s))]) == 0
    assert de._finish is finish
    lines = dict(line.split() for line in capsys.readouterr().out.splitlines())
    # log S and H, log R, log P
    assert lines["categorical"] == "3"
    assert not {"log_softmax", "take_last", "softmax", "sum_last"} & set(lines)
    assert int(lines["total"]) == sum(int(n) for op, n in lines.items() if op != "total")
