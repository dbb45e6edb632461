"""Workload ``fleet``: one verifier service, eight loopback provers.

The provers are the ``Fleet`` defaults (blinker firmware, ASAP, trace
recording on), built from the same public pieces ``repro.net.Fleet``
uses.  Closed loop: eight clients, each alternating RA and PoX and
sending its next request only when the previous verdict is in.  Many
short PoX runs interleave on one event loop, RA measures the whole
program region, and every prover shares one challenge table.
"""

from __future__ import annotations

import asyncio
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

CLIENTS = 8
#: Rounds per client per chunk; a round is one RA and one PoX exchange.
#: Traces are cleared between chunks, so memory reflects one chunk, not
#: the length of the run.
CHUNK = 10
#: Chunks run before timing starts.
WARMUP_CHUNKS = 1
#: Simulated statistics every PoX exchange must repeat exactly.
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())["fleet"]
#: Service counters reported as ``net.*`` per-layer metrics.
SERVICE_COUNTERS = ("challenges", "accepted", "rejected", "errors", "duplicates")


class System:
    """The service and its provisioned, booted provers."""

    def __init__(self):
        from repro.firmware.blinker import blinker_firmware
        from repro.net.fleet import build_prover_bench
        from repro.net.service import VerifierService

        self.service = VerifierService()
        firmware = blinker_firmware(authorized=True)
        self.benches = []
        for index in range(CLIENTS):
            bench = build_prover_bench(firmware, "asap", "prover-%04d" % index,
                                       pox_verifier=self.service.asap)
            device = bench.device
            # Plain RA attests program memory against the flashed image.
            self.service.verifier.set_reference(bench.config.device_id, [
                (device.layout.program, device.memory.dump_region(device.layout.program)),
            ])
            boot(bench)
            self.benches.append(bench)


class Session:
    """Connected endpoints and the bookkeeping of one measured session."""

    def __init__(self, system: System, plan: inputs.FleetPlan, outcome: Outcome):
        from repro.net.prover import ProverEndpoint
        from repro.net.transport import loopback_pair

        self.system = system
        self.plan = plan
        self.outcome = outcome
        self.endpoints = []
        self.serving = []
        for bench in system.benches:
            client, server_side = loopback_pair()
            task = asyncio.ensure_future(system.service.serve(server_side))
            self.serving.append((task, server_side))
            self.endpoints.append(ProverEndpoint(
                bench.config.device_id, bench.device, bench.protocol.device_key,
                client, protocol=bench.protocol))
        #: Device id -> the benchmark's open exchange span (traced runs).
        self.open_spans = {}
        self.tracer = None
        #: Recorded latencies per exchange kind and per round.
        self.latency = {"ra": [], "pox": [], "round": []}
        self.exchanges = 0
        #: Service counters when the measured part began.
        self.baseline = dict(system.service.counters)
        #: The last PoX exchange's simulated statistics.
        self.pox_statistics = {"steps": 0, "cycles": 0, "irqs": 0}
        self.trace_entries = 0

    async def close(self):
        for endpoint in self.endpoints:
            await endpoint.close()
        for task, server_side in self.serving:
            await server_side.close()
            task.cancel()
        await asyncio.gather(*(task for task, _ in self.serving), return_exceptions=True)

    async def _client(self, index, rounds, record):
        endpoint = self.endpoints[index]
        device = self.system.benches[index].device
        first = self.plan.first_kind[index]
        kinds = inputs.FLEET_KINDS[first:] + inputs.FLEET_KINDS[:first]
        clock = time.perf_counter
        for _ in range(rounds):
            round_started = clock()
            for kind in kinds:
                steps, cycles = device.cpu.step_count, device.total_cycles
                irqs = device.interrupt_controller.total_serviced()
                started = clock()
                if self.tracer is None:
                    result = await self._exchange(endpoint, kind)
                else:
                    with self.tracer.span(layers.EXCHANGE_SPANS[kind]) as span:
                        self.open_spans[endpoint.device_id] = span
                        result = await self._exchange(endpoint, kind)
                if record:
                    self.latency[kind].append(clock() - started)
                    self.exchanges += 1
                    self._check(kind, result, device.cpu.step_count - steps,
                                device.total_cycles - cycles,
                                device.interrupt_controller.total_serviced() - irqs)
            if record:
                self.latency["round"].append(clock() - round_started)

    @staticmethod
    async def _exchange(endpoint, kind):
        if kind == "ra":
            return await endpoint.run_attestation()
        return await endpoint.run_pox()

    def _check(self, kind, result, steps, cycles, irqs):
        outcome = self.outcome
        outcome.attempted += 1
        problems = []
        if not result.accepted:
            problems.append("%s rejected: %s" % (kind, result.reason))
        pinned = EXPECTED[kind]
        measured = {"steps": steps, "cycles": cycles, "irqs": irqs}
        if kind == "pox":
            self.pox_statistics = measured
        if measured != pinned:
            problems.append("%s statistics %s != pinned %s" % (kind, measured, pinned))
        if problems:
            outcome.fail("; ".join(problems))

    async def chunk(self, record=True) -> float:
        """One closed-loop chunk; returns its wall time."""
        service = self.system.service
        before = dict(service.counters)
        exchanges = self.exchanges
        started = time.perf_counter()
        await asyncio.gather(*(self._client(index, CHUNK, record)
                               for index in self.plan.order))
        elapsed = time.perf_counter() - started
        if record:
            issued = service.counters["challenges"] - before["challenges"]
            if issued != self.exchanges - exchanges:
                self.outcome.fail("service issued %d challenges for %d exchanges"
                                  % (issued, self.exchanges - exchanges))
            if service.pending_challenges:
                self.outcome.fail("%d challenges left pending after a chunk"
                                  % service.pending_challenges)
        self.trace_entries = sum(len(bench.device.trace) for bench in self.system.benches)
        for bench in self.system.benches:
            bench.device.trace.clear()
        return elapsed


async def _measure(session: Session, seconds, tracer=None) -> dict:
    """Chunks until *seconds* have passed; returns what they measured.

    A probe runs between chunks; each chunk's median round latency is
    scaled by the probes on either side of it.
    """
    session.tracer = tracer
    session.baseline = dict(session.system.service.counters)
    session.latency = {kind: [] for kind in session.latency}
    chunks, rounds, probes = [], [], []
    before = probe()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not chunks:
        first = len(session.latency["round"])
        chunks.append(await session.chunk())
        after = probe()
        probes.append((before + after) / 2)
        rounds.append(scaled(statistics.median(session.latency["round"][first:]), probes[-1]))
        before = after
    return {"chunks": chunks, "latency": session.latency, "scaled_rounds": rounds,
            "probe": statistics.median(probes)}


def summary(measured: dict, outcome: Outcome) -> dict:
    """Round throughput and latency, and latency per exchange kind."""
    latency = measured["latency"]
    metrics = {
        "op_ms": 1000 * statistics.median(measured["scaled_rounds"]),
        "bench.op_p50_ms": 1000 * stats.percentile(latency["round"], 50),
        "bench.op_p95_ms": 1000 * stats.percentile(latency["round"], 95),
        "bench.probe_ms": 1000 * measured["probe"],
        # Median chunk rate: a burst of outside noise spoils one chunk.
        "bench.ops_per_s": statistics.median(
            CLIENTS * CHUNK / elapsed for elapsed in measured["chunks"]),
    }
    for kind in ("round", "ra", "pox"):
        sample = latency[kind]
        outcome.notes.append(latency_notes("fleet %s latency" % kind, sample))
        if not stats.supports(len(sample), 95):
            outcome.fail("only %d %s samples: too few for a p95" % (len(sample), kind))
        if kind != "round":
            metrics["net.%s_p50_ms" % kind] = 1000 * stats.percentile(sample, 50)
            metrics["net.%s_p95_ms" % kind] = 1000 * stats.percentile(sample, 95)
    return metrics


def _counters(system: System, session: Session) -> dict:
    service = system.service
    metrics = {"net." + name: service.counters[name] - session.baseline[name]
               for name in SERVICE_COUNTERS}
    metrics["net.retransmits"] = sum(endpoint.retransmits for endpoint in session.endpoints)
    metrics["net.pending_after"] = service.pending_challenges
    return metrics


async def _session(request: Request, system: System, outcome: Outcome) -> Session:
    plan = inputs.fleet_plan(request.seed, CLIENTS)
    session = Session(system, plan, outcome)
    try:
        for _ in range(WARMUP_CHUNKS):
            await session.chunk(record=False)
        if not request.trace:
            outcome.metrics.update(summary(await _measure(session, request.seconds), outcome))
            return session
        # Untraced half first, then the traced half: their ratio is the
        # tracing overhead.
        plain = await _measure(session, request.seconds / 2)
        outcome.metrics.update(summary(plain, outcome))
        tracer = Tracer()
        layers.instrument(tracer, session.open_spans)
        try:
            with tracer.span("bench.run") as root:
                traced = await _measure(session, request.seconds / 2, tracer)
        finally:
            tracer.restore()
        outcome.metrics.update(layers.layer_metrics(tracer, root))
        outcome.metrics["bench.trace_overhead"] = (
            statistics.median(traced["scaled_rounds"])
            / statistics.median(plain["scaled_rounds"]) - 1.0)
        return session
    finally:
        await session.close()


def run(request: Request) -> Outcome:
    outcome = Outcome()
    setup = setup_seconds("fleet")
    system = System()
    session = asyncio.run(_session(request, system, outcome))
    if not request.trace:
        outcome.metrics.update(setup_s=setup, peak_rss_mb=peak_rss_mb())

    outcome.metrics.update(_counters(system, session))
    resets = sum(bench.device.watchdog_resets for bench in system.benches)
    device = system.benches[0].device
    outcome.metrics.update({
        "device.steps_per_exchange": session.pox_statistics["steps"],
        "device.cycles_per_exchange": session.pox_statistics["cycles"],
        "device.irqs_per_exchange": session.pox_statistics["irqs"],
        "device.watchdog_resets": resets,
        "device.trace_entries": session.trace_entries,
        "cpu.block_runs": device.engine.stats().get("block_runs", 0),
        "cpu.decode_hit_rate": device.decode_cache.stats()["hit_rate"],
    })
    if resets:
        outcome.fail("watchdog reset the provers %d times" % resets)
    return outcome
