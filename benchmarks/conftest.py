"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts
(Fig. 5 waveforms, Fig. 6 overhead bars, the verification-cost and
runtime-overhead numbers of Section 5) or records a performance
trajectory (simulation throughput) and prints the corresponding
rows/series.  Run with ``pytest benchmarks/ --benchmark-only -s`` to see
the tables alongside the timing statistics.

Everything collected from this directory is marked ``bench`` so the
tier-1 suite can be run without the long benchmark tail via
``pytest -m "not bench" -x -q``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest


_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)


def print_table(title, rows):
    """Print a list of dictionaries as an aligned table."""
    print("\n=== %s ===" % title)
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row[column])) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row[column]).ljust(widths[column]) for column in columns))


@pytest.fixture
def table_printer():
    """Fixture exposing :func:`print_table` to benchmark tests."""
    return print_table


def write_bench_json(name, payload):
    """Write *payload* as machine-readable benchmark results.

    The file lands in ``$REPRO_BENCH_DIR`` (default: the current
    working directory); CI uploads ``BENCH_*.json`` as artifacts so the
    perf trajectory is tracked per PR.  Returns the written path.

    Every payload (and every entry of its ``rows``, if present) is
    stamped with the step loop's name (``engine``), and the payload
    with the process-wide decode-cache statistics and the full
    metrics-registry snapshot -- a bench number without the telemetry
    that produced it is unreproducible.  The decode-cache stamp is a
    *view of that snapshot* (the registry's collectors are the one
    source of truth): ``decode_cache`` is the snapshot's ``cache.*``
    gauges with the prefix stripped.
    """
    from repro.cpu.engine import engine_name
    from repro.obs.metrics import get_registry

    snapshot = get_registry().snapshot()
    payload = dict(payload)
    payload.setdefault("engine", engine_name())
    payload.setdefault("decode_cache", {
        key[len("cache."):]: value
        for key, value in snapshot["gauges"].items()
        if key.startswith("cache.")
    })
    payload.setdefault("telemetry", snapshot)
    if isinstance(payload.get("rows"), list):
        payload["rows"] = [
            dict(row, engine=engine_name()) if isinstance(row, dict) else row
            for row in payload["rows"]
        ]
    directory = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    # allow_nan=False: bench artifacts are consumed by strict RFC-8259
    # parsers (the compare gate, CI tooling); an Infinity/NaN rate is a
    # bug upstream and should fail loudly here, not downstream.
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    print("\nwrote %s" % path)
    return path


@pytest.fixture
def bench_json():
    """Fixture exposing :func:`write_bench_json` to benchmark tests."""
    return write_bench_json
