"""Schema of ``tools/bench_merge.py`` on hand-written perfbench records."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_merge.py"
spec = importlib.util.spec_from_file_location("bench_merge", SCRIPT)
bench_merge = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_merge)


def record(workload, seed, trace, metrics, errors=(None,), commit="abc"):
    machine = {"nproc": 2, "commit": commit, "dirty": False}
    if not trace:
        machine["matmul_peak_gflops"] = {"f32": 190.0, "f64": 95.0}
    return {
        "context": {
            "machine": machine,
            "workload": workload,
            "seed": seed,
            "seconds": 35.0,
            "trace": trace,
            "quick": False,
            "runs": {workload: [{"error": e} for e in errors]},
        },
        "correct": all(e is None for e in errors),
        "attempted": len(errors),
        "failed": sum(e is not None for e in errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def test_merge_two_records(tmp_path):
    untraced = record("attrval-h64", 1, 0, {"iters_per_s": (20.0, "iter/s")}, errors=(None, "exit 1"))
    traced = record("attrval-h64", 1, 1, {"diffengine.tape_nodes": (278.0, "count")})
    for i, r in enumerate((untraced, traced)):
        (tmp_path / f"result-{i}.json").write_text(json.dumps(r))
    out = tmp_path / "BENCH_x.json"
    assert bench_merge.main(["--label", "x", "--in", str(tmp_path), "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert set(bench) == {"label", "commit", "machine", "seconds", "workloads"}
    assert bench["label"] == "x" and bench["commit"] == "abc"
    assert bench["machine"]["matmul_peak_gflops"] == {"f32": 190.0, "f64": 95.0}
    w = bench["workloads"]["attrval-h64"]
    assert (w["attempted"], w["failed"]) == (3, 1)
    assert w["end_to_end"] == {
        "iters_per_s": {
            "unit": "iter/s", "by_seed": {"1": 20.0}, "median": 20.0, "q1": 20.0, "q3": 20.0
        }
    }
    nodes = w["per_layer"]["diffengine.tape_nodes"]
    assert (nodes["q1"], nodes["median"], nodes["q3"]) == (278.0, 278.0, 278.0)


def test_merge_takes_medians_and_splits_all_workloads():
    runs = [record("attrval-h64", s, 0, {"setup_s": (v, "s")}) for s, v in ((1, 0.3), (2, 0.5), (3, 0.4))]
    both = record("all", 4, 0, {"a/setup_s": (1.0, "s"), "b/setup_s": (2.0, "s")})
    both["context"]["runs"] = {"a": [{"error": None}], "b": [{"error": None}]}
    bench = bench_merge.merge(runs + [both], "y")
    assert bench["workloads"]["attrval-h64"]["end_to_end"]["setup_s"]["median"] == 0.4
    assert bench["workloads"]["b"]["end_to_end"]["setup_s"]["by_seed"] == {"4": 2.0}
    assert bench["workloads"]["a"]["attempted"] == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_merge_records_the_quartiles_beside_the_median(trace):
    values = (0.30, 0.50, 0.40, 0.90, 0.35)
    runs = [record("w", 9, 0, {})]  # merge needs one untraced result
    runs += [record("w", s, trace, {"m": (v, "s")}) for s, v in enumerate(values)]
    section = "per_layer" if trace else "end_to_end"
    entry = bench_merge.merge(runs, "q")["workloads"]["w"][section]["m"]
    # numpy's linear percentile of 0.30, 0.35, 0.40, 0.50, 0.90 at 25 / 50 / 75 %
    assert entry["median"] == 0.40
    assert entry["q1"] == pytest.approx(0.35) and entry["q3"] == pytest.approx(0.50)
    two = [record("w", s, 0, {"m": (v, "s")}) for s, v in ((1, 1.0), (2, 3.0))]
    m = bench_merge.merge(two, "q")["workloads"]["w"]["end_to_end"]["m"]
    assert (m["q1"], m["median"], m["q3"]) == (1.5, 2.0, 2.5)


def test_merge_refuses_mixed_commits_and_no_untraced_result():
    with pytest.raises(bench_merge.MergeError, match="several commits"):
        bench_merge.merge(
            [record("w", 1, 0, {}, commit="a"), record("w", 2, 0, {}, commit="b")], "z"
        )
    with pytest.raises(bench_merge.MergeError, match="untraced"):
        bench_merge.merge([record("w", 1, 1, {})], "z")


def test_extra_block_is_copied_and_checked(tmp_path):
    (tmp_path / "result-0.json").write_text(
        json.dumps(record("attrval-h64", 1, 0, {"iters_per_s": (20.0, "iter/s")}))
    )
    extra = {
        "big.peak_rss_mb": {"value": 4890.5, "unit": "MB", "command": "python -m eclab run"},
        "big.s_per_step": {"value": 19, "unit": "s", "command": "python -m eclab run"},
    }
    (tmp_path / "extra.json").write_text(json.dumps(extra))
    out = tmp_path / "BENCH_x.json"
    args = ["--label", "x", "--in", str(tmp_path), "--out", str(out)]
    assert bench_merge.main(args + ["--extra", str(tmp_path / "extra.json")]) == 0
    bench = json.loads(out.read_text())
    assert set(bench) == {"label", "commit", "machine", "seconds", "workloads", "extra"}
    assert bench["extra"] == extra
    assert bench_merge.main(args) == 0
    assert "extra" not in json.loads(out.read_text())


@pytest.mark.parametrize(
    "extra",
    [
        [],
        {"m": {"value": 1.0, "unit": "MB"}},
        {"m": {"value": 1.0, "unit": "MB", "command": "c", "note": "n"}},
        {"m": {"value": "1", "unit": "MB", "command": "c"}},
        {"m": {"value": True, "unit": "MB", "command": "c"}},
        {"m": {"value": 1.0, "unit": None, "command": "c"}},
    ],
)
def test_extra_block_rejects_malformed_entries(extra):
    with pytest.raises(bench_merge.MergeError, match="extra"):
        bench_merge.merge([record("w", 1, 0, {})], "z", extra)
