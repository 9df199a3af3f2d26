"""The benchmark's workloads and the check every finished run must pass.

A workload is one ``eclab run`` of a preset with a few fields overridden.
Every child process (and every traced in-process run) of a workload trains
for the same fixed number of iterations, so runs are comparable back to back.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict  # RunConfig fields, passed to ``eclab run`` as --set
    prior: bool  # the preset trains with the message prior (beta_mode rewo)

    @property
    def iterations(self):
        return self.overrides["iterations"]

    def eval_points(self):
        every = self.overrides["eval_every"]
        points = list(range(every, self.iterations + 1, every))
        if not points or points[-1] != self.iterations:
            points.append(self.iterations)
        return points


WORKLOADS = {
    w.name: w
    for w in (
        # hidden 64, batch 256: ~930 tape nodes per step on [256, 64] arrays, so
        # Python and per-op tape overhead dominate and BLAS does little.
        Workload("attrval-h64", "smoke-attrval", dict(iterations=40, eval_every=40), False),
        # hidden 512, batch 1024: backward, BLAS and tape memory dominate; the
        # only workload with the Dyck sequence encoder and decoder LSTMs.
        Workload(
            "dyck-h512-b1024",
            "exp1-dyck-k4",
            dict(batch_size=1024, iterations=2, eval_every=2),
            False,
        ),
        # hidden 512, 4096 meanings: most of the wall is tape-free greedy
        # evaluation at B~3.7k; the only workload with the message prior and
        # the KL-weight controller.
        Workload(
            "attrval-rewo-eval",
            "exp2-attrval-4x8",
            dict(batch_size=256, iterations=4, eval_every=4),
            True,
        ),
    )
}

# --quick: the same presets and code paths at toy size, for the schema self-test.
QUICK = dict(hidden=16, embedding=8, batch_size=16, iterations=2, eval_every=2)


def resolve(name, quick=False):
    workload = WORKLOADS[name]
    if not quick:
        return workload
    return replace(workload, overrides=dict(workload.overrides, **QUICK))


def check_run(workload, out_dir):
    """Return ``(summary, None)`` for a run that did what was asked, else
    ``(summary_or_None, reason)``. This is the ``runs_failed`` definition:
    summary missing or marked failed, iterations short, wrong evaluation rows,
    or a logged recon_loss / ComAcc / log prior that is non-finite or out of
    range."""
    out = pathlib.Path(out_dir)
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return None, f"no readable summary.json: {exc}"
    if summary.get("failed"):
        return summary, f"summary.json says failed: {summary.get('error')}"
    if summary.get("iterations_done") != workload.iterations:
        return summary, f"iterations_done {summary.get('iterations_done')} != {workload.iterations}"
    if not summary.get("wall_seconds_total", 0) > 0:
        return summary, "summary.json has no positive wall_seconds_total"
    try:
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        iters = [int(r["iteration"]) for r in rows]
        for r in rows:
            recon = float(r["recon_loss"])
            if not (math.isfinite(recon) and recon >= 0.0):
                return summary, f"recon_loss {recon} at iteration {r['iteration']}"
            for key in ("comacc_train", "comacc_test"):
                acc = float(r[key])
                if not 0.0 <= acc <= 1.0:  # also rejects nan
                    return summary, f"{key} {acc} at iteration {r['iteration']}"
            for key in ("mean_log_prior_train", "mean_log_prior_test"):
                lp = float(r[key])
                ok = (math.isfinite(lp) and lp <= 0.0) if workload.prior else math.isnan(lp)
                if not ok:
                    return summary, f"{key} {lp} at iteration {r['iteration']}"
    except (OSError, KeyError, ValueError) as exc:
        return summary, f"unreadable metrics.csv: {exc}"
    if iters != workload.eval_points():
        return summary, f"metrics.csv rows at {iters}, expected {workload.eval_points()}"
    return summary, None
