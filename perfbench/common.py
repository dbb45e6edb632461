"""Shared plumbing: the run request and its outcome, the environment,
prover boot, cold starts, and the probe that scales times to a reference core."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

#: Environment knobs that would switch the program off its defaults.
PINNED_PREFIXES = ("REPRO_BLOCKS_",)
PINNED_NAMES = ("REPRO_EXEC_BACKEND", "REPRO_CRYPTO_BACKEND", "REPRO_CODE_EPOCH")

#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Failures described one by one in a run's notes; the rest are counted.
MAX_FAILURE_NOTES = 10
#: Seconds a child process may take before the run is abandoned.
CHILD_TIMEOUT = 60


#: Seconds ``probe()`` takes on an uncontended core of the 2-CPU box the
#: benchmark was defined on (the lower decile of probes taken every 10 ms
#: for 30 s there).  Scaled times read as if measured on that core.
PROBE_REFERENCE_S = 0.00041


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


@dataclass
class Request:
    workload: str
    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Human-readable lines printed before the result (sample counts, gates).
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str):
        self.failed += 1
        if self.failed <= MAX_FAILURE_NOTES:
            self.notes.append("FAIL: " + message)
        elif self.failed == MAX_FAILURE_NOTES + 1:
            self.notes.append("FAIL: further failures are counted, not listed")


def pin_environment():
    """Drop the knobs that select a non-default engine, crypto or epoch."""
    for name in list(os.environ):
        if name in PINNED_NAMES or name.startswith(PINNED_PREFIXES):
            del os.environ[name]
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment() -> Dict[str, object]:
    """What every result is recorded with."""
    from repro.cpu.engine import engine_name
    from repro.crypto.backend import backend_name

    return {
        "engine": engine_name(),
        "crypto": backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def boot(bench):
    """Power up a prover: run its untrusted ``main`` prologue, which stops
    the watchdog, through the device's public run API."""
    device = bench.device
    if not device.run_until_pc(bench.firmware.symbol("idle"), max_steps=64):
        raise BenchError("prover %s did not reach its idle loop" % bench.config.device_id)
    if not device.watchdog.held:
        raise BenchError("prover %s booted with its watchdog running"
                         % bench.config.device_id)


class _ProbeState:
    __slots__ = ("value", "table")


def probe() -> float:
    """Seconds a fixed slice of interpreter work takes right now.

    The host this benchmark runs on shares its cores: every few seconds
    a core switches between a fast state and one 1.5-3x slower, and it
    spends 40-80% of its time slow.  A wall time therefore measures the
    neighbours as much as the program.  Timing this probe (attribute,
    dict and integer operations, the staple of the simulator's loop)
    next to each op tells how fast the core was at that moment.
    """
    state = _ProbeState()
    state.value = 0
    state.table = table = {}
    clock = time.perf_counter
    started = clock()
    for index in range(4000):
        state.value += index & 7
        table[index & 63] = state.value
        state.value ^= table.get(index & 31, 0)
    return clock() - started


def scaled(seconds: float, probe_seconds: float) -> float:
    """*seconds* as they would have read on the reference core."""
    return seconds * PROBE_REFERENCE_S / probe_seconds


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(*args: str) -> str:
    """Run ``child.py`` in a fresh interpreter; return its last output line."""
    completed = subprocess.run(
        [sys.executable, str(CHILD), *args], cwd=str(ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT, check=False)
    if completed.returncode != 0:
        raise BenchError("child %s exited %d: %s" % (
            " ".join(args), completed.returncode, completed.stderr.strip()[-2000:]))
    lines = completed.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def setup_seconds(workload: str) -> float:
    """Median of ``SETUP_REPEATS`` cold starts of *workload*, each scaled
    to the reference core by the probes the cold start took itself (the
    child may run on the other core, whose speed is its own).

    A cold start is a fresh interpreter that imports the program, builds
    the workload's system and boots its provers, as a user pays it on
    every run.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        payload = json.loads(run_child("setup", workload))
        samples.append(scaled(time.perf_counter() - started, payload["probe_s"]))
    return statistics.median(samples)


def latency_notes(label: str, seconds: List[float]) -> str:
    """One line stating a latency sample's size and its reportable tail."""
    tail = stats.tail_percentile(len(seconds))
    tail_text = ("p%g %.3f ms" % (tail, 1000 * stats.percentile(seconds, tail))
                 if tail is not None else "no tail percentile")
    return "%s: n=%d, p50 %.3f ms, highest reportable %s" % (
        label, len(seconds), 1000 * stats.percentile(seconds, 50), tail_text)
