"""``tools/peak_rss.py`` reports a child's exit code, wall time and peak RSS."""

import importlib.util
import json
import pathlib
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"
spec = importlib.util.spec_from_file_location("peak_rss", SCRIPT)
peak_rss = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peak_rss)


def test_reports_the_childs_peak_and_exit_code(capsys):
    grow = "b = bytearray(64 * 2**20); b[::4096] = b'x' * len(b[::4096])"
    assert peak_rss.main([sys.executable, "-c", grow]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"exit_code", "wall_s", "peak_rss_mb"}
    assert report["exit_code"] == 0 and report["wall_s"] > 0.0
    assert report["peak_rss_mb"] >= 64.0
    assert peak_rss.main([sys.executable, "-c", "raise SystemExit(3)"]) == 3
    assert json.loads(capsys.readouterr().out)["exit_code"] == 3
