"""Workload ``paper``: the full reproduction, one fresh interpreter per pass.

Each pass is ``python -m repro.experiments`` with its defaults, so the
LTL-model and firmware-link caches start cold, as a user pays them on
every run.  The inputs are the paper's; the seed is not used.  Every
pass must exit 0 and export rows byte-identical to ``paper_rows.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import layers
from common import Outcome, Request, run_child, scaled, setup_seconds

ROWS_FILE = Path(__file__).parent / "paper_rows.json"


def canonical(rows) -> str:
    return json.dumps(rows)


def expected_rows() -> dict:
    return {experiment_id: canonical(rows)
            for experiment_id, rows in json.loads(ROWS_FILE.read_text()).items()}


def one_pass(traced: bool, outcome: Outcome, expected: dict):
    """Run one pass; gate it; return (wall seen from here, child payload)."""
    started = time.perf_counter()
    payload = json.loads(run_child("pass", "1" if traced else "0"))
    wall = time.perf_counter() - started
    rows = payload["rows"]
    for experiment_id in layers.EXPERIMENT_IDS:
        outcome.attempted += 1
        if experiment_id not in rows:
            outcome.fail("%s missing from the pass" % experiment_id)
        elif canonical(rows[experiment_id]) != expected[experiment_id]:
            outcome.fail("%s rows differ from paper_rows.json" % experiment_id)
    if payload["exit"] != 0:
        outcome.fail("python -m repro.experiments exited %s" % payload["exit"])
    return wall, payload


def scaled_pass(pieces) -> float:
    """A pass's time on the reference core: every piece scaled by the
    probes around it."""
    return sum(scaled(seconds, probe_seconds) for _, seconds, probe_seconds in pieces)


def run(request: Request) -> Outcome:
    outcome = Outcome()
    expected = expected_rows()
    setup = setup_seconds("paper")
    deadline = time.perf_counter() + request.seconds
    walls, rss, inner, scaled_passes = [], [], [], []
    traced_inner, traced_layers = [], None
    while time.perf_counter() < deadline or not walls or (request.trace and not traced_inner):
        wall, payload = one_pass(False, outcome, expected)
        walls.append(wall)
        rss.append(payload["rss_mb"])
        inner.append(scaled(payload["wall_s"], payload["probe_s"]))
        # Interpreter start-up and imports belong to the rest of the pass.
        key, rest, rest_probe = payload["pieces"].pop()
        payload["pieces"].append((key, rest + wall - payload["wall_s"], rest_probe))
        scaled_passes.append(scaled_pass(payload["pieces"]))
        if request.trace:
            _, payload = one_pass(True, outcome, expected)
            traced_inner.append(scaled(payload["wall_s"], payload["probe_s"]))
            traced_layers = traced_layers or payload["layers"]
    outcome.notes.append("paper passes: n=%d, wall %s s" % (
        len(walls), ", ".join("%.3f" % wall for wall in walls)))
    outcome.metrics.update({
        "op_ms": 1000 * statistics.median(scaled_passes),
        "bench.op_p50_ms": 1000 * statistics.median(walls),
        "bench.ops_per_s": statistics.median([1.0 / wall for wall in walls]),
    })
    if request.trace:
        outcome.metrics.update(traced_layers)
        outcome.metrics["bench.trace_overhead"] = (
            statistics.median(traced_inner) / statistics.median(inner) - 1.0)
    else:
        outcome.metrics.update(setup_s=setup, peak_rss_mb=statistics.median(rss))
    return outcome
