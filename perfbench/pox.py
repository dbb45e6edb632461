"""Workload ``pox``: one ASAP prover, closed loop, concurrency 1.

Each exchange is the paper's headline capability end to end: the
verifier issues a challenge, the sensor logger's ER runs under the ASAP
monitor while seeded UART commands arrive and are served by the trusted
ISR linked inside ER, the prover attests, the verifier checks.  Trace
recording is off, as on a deployed prover.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import inputs
import layers
import stats
from common import (Outcome, Request, boot, latency_notes, peak_rss_mb, probe, scaled,
                    setup_seconds)
from tracing import Tracer

#: Exchanges run before timing starts (fills the decode cache).
WARMUP = 10
#: Exchanges per throughput sample; ``bench.ops_per_s`` is the median
#: sample, so a burst of noise from outside spoils one sample, not the run.
RATE_CHUNK = 25
#: Simulated statistics every exchange must repeat exactly.
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())["pox"]
#: Output-region word index per field (the sensor logger's layout).
OUTPUT_FIELDS = ("sum", "count", "command")


def build():
    """A provisioned, booted sensor-logger prover."""
    from repro.firmware.sensor_logger import SensorParameters, sensor_logger_firmware
    from repro.firmware.testbench import PoxTestbench, TestbenchConfig

    firmware = sensor_logger_firmware(SensorParameters(samples=inputs.POX_SAMPLES))
    config = TestbenchConfig(architecture="asap", trace_enabled=False,
                             enable_port1_interrupts=False,
                             enable_uart_rx_interrupts=True)
    bench = PoxTestbench(firmware, config)
    boot(bench)
    return bench


def exchange(bench, item: inputs.PoxInput, clock=time.perf_counter):
    """One monitored PoX exchange; returns its measurements."""
    device = bench.device
    protocol = bench.protocol
    device.gpio1.assert_input(0xFF, level=False)
    device.gpio1.assert_input(item.sensor, level=True)

    def schedule(target):
        for offset, command in item.commands:
            target.schedule_uart_rx(target.step_number + offset, bytes([command]))

    cycles = device.total_cycles
    irqs = device.interrupt_controller.total_serviced()
    started = clock()
    protocol.deliver_challenge()
    run_started = clock()
    steps = protocol.call_executable(setup=schedule)
    run_ended = clock()
    verdict = protocol.verify(protocol.attest())
    ended = clock()
    return {
        "latency": ended - started,
        "run": run_ended - run_started,
        "accepted": verdict.accepted,
        "steps": steps,
        "cycles": device.total_cycles - cycles,
        "irqs": device.interrupt_controller.total_serviced() - irqs,
        "output": {name: bench.output_word(index)
                   for index, name in enumerate(OUTPUT_FIELDS)},
    }


def check(outcome: Outcome, item: inputs.PoxInput, measured) -> None:
    """Count the exchange; record a failure if any gate misses."""
    outcome.attempted += 1
    problems = []
    if not measured["accepted"]:
        problems.append("rejected")
    if measured["output"] != item.expected_output():
        problems.append("OR %s != expected %s"
                        % (measured["output"], item.expected_output()))
    for key in ("steps", "cycles", "irqs"):
        if measured[key] != EXPECTED[key]:
            problems.append("%s %d != pinned %d" % (key, measured[key], EXPECTED[key]))
    if problems:
        outcome.fail("exchange %d: %s" % (outcome.attempted, "; ".join(problems)))


def _loop(bench, feed, seconds, outcome, tracer=None):
    """Exchanges until *seconds* have passed; returns every measurement.

    A probe runs between exchanges; each exchange is scaled by the
    probes on either side of it.
    """
    results = []
    before = probe()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not results:
        item = next(feed)
        if tracer is None:
            measured = exchange(bench, item)
        else:
            with tracer.span(layers.EXCHANGE_SPANS["pox"]):
                measured = exchange(bench, item)
        after = probe()
        measured["probe"] = (before + after) / 2
        before = after
        check(outcome, item, measured)
        results.append(measured)
    return results


def summary(results, outcome: Outcome) -> dict:
    """Latency, throughput and simulator speed of untraced exchanges."""
    latencies = [result["latency"] for result in results]
    outcome.notes.append(latency_notes("pox exchange latency", latencies))
    if not stats.supports(len(latencies), 95):
        outcome.fail("only %d exchanges: too few for a p95" % len(latencies))
    rates = [len(chunk) / sum(chunk)
             for chunk in (latencies[start:start + RATE_CHUNK]
                           for start in range(0, len(latencies) - RATE_CHUNK + 1, RATE_CHUNK))]
    return {
        "op_ms": 1000 * statistics.median(
            scaled(result["latency"], result["probe"]) for result in results),
        "bench.probe_ms": 1000 * statistics.median(result["probe"] for result in results),
        "bench.op_p50_ms": 1000 * stats.percentile(latencies, 50),
        "bench.op_p95_ms": 1000 * stats.percentile(latencies, 95),
        "bench.ops_per_s": statistics.median(rates) if rates else len(latencies) / sum(latencies),
        "device.steps_per_s": (sum(result["steps"] for result in results)
                               / sum(result["run"] for result in results)),
    }


def run(request: Request) -> Outcome:
    outcome = Outcome()
    setup = setup_seconds("pox")
    bench = build()
    feed = inputs.pox_inputs(request.seed)
    for _ in range(WARMUP):
        exchange(bench, next(feed))

    if not request.trace:
        results = _loop(bench, feed, request.seconds, outcome)
        outcome.metrics.update(summary(results, outcome))
        outcome.metrics.update(setup_s=setup, peak_rss_mb=peak_rss_mb())
    else:
        # Untraced half first, then the traced half: their ratio is the
        # tracing overhead.
        plain = _loop(bench, feed, request.seconds / 2, outcome)
        outcome.metrics.update(summary(plain, outcome))
        tracer = Tracer()
        layers.instrument(tracer)
        try:
            with tracer.span("bench.run") as root:
                results = _loop(bench, feed, request.seconds / 2, outcome, tracer)
        finally:
            tracer.restore()
        outcome.metrics.update(layers.layer_metrics(tracer, root))
        outcome.metrics["bench.trace_overhead"] = (
            statistics.median(scaled(result["latency"], result["probe"]) for result in results)
            / statistics.median(scaled(result["latency"], result["probe"]) for result in plain)
            - 1.0)

    device = bench.device
    last = results[-1]
    cache = device.decode_cache.stats()
    outcome.metrics.update({
        "device.steps_per_exchange": last["steps"],
        "device.cycles_per_exchange": last["cycles"],
        "device.irqs_per_exchange": last["irqs"],
        "device.watchdog_resets": device.watchdog_resets,
        "device.trace_entries": len(device.trace),
        "cpu.block_runs": device.engine.stats().get("block_runs", 0),
        "cpu.decode_hit_rate": cache["hit_rate"],
    })
    if device.watchdog_resets:
        outcome.fail("watchdog reset the prover %d times" % device.watchdog_resets)
    return outcome
