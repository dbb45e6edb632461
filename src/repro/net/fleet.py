"""Fleet harness: N simulated devices against one or more verifier services.

:class:`Fleet` stands up ``shards`` :class:`~repro.net.service.VerifierService`
instances (one by default), builds *size* simulated devices (each a full
:class:`~repro.firmware.testbench.PoxTestbench` device with its own
monitor), provisions device *i* into service ``i % shards``, connects a
:class:`~repro.net.prover.ProverEndpoint` per device to that same
service over an in-process loopback pair, and drives sustained mixed
RA/PoX traffic, all on the caller's event loop.  ``Fleet(32).run()`` is
the "thousands of provers, one verifier" shape of the paper's
deployment story scaled to a unit test;
``Fleet(32, shards=2)`` splits the same devices between two services
that share no state (each has its own key store and challenge table).
``benchmarks/test_bench_fleet.py`` sweeps the fleet size and records
exchanges/sec into ``BENCH_fleet.json``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.firmware.blinker import blinker_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.net.prover import ExchangeResult, ProverEndpoint
from repro.net.service import VerifierService
from repro.net.transport import loopback_pair
from repro.obs.metrics import get_registry

#: Default exchange mix: alternate plain RA with proofs of execution.
DEFAULT_MIX = ("ra", "pox")

#: Exchange kinds a mix may name.
EXCHANGE_KINDS = ("ra", "pox")


def build_prover_bench(firmware, architecture, device_id,
                       pox_verifier=None) -> PoxTestbench:
    """One fleet device: a full testbench provisioned for *architecture*.

    With ``pox_verifier`` the deployment registers into that verifier
    (a service's ``asap`` or ``apex``, as :class:`Fleet` passes for each
    device); without it the bench provisions a private local verifier,
    as a standalone :class:`~repro.firmware.testbench.PoxTestbench` does.

    The device records no trace, as a deployed prover keeps none:
    nothing on the fleet path reads one.  Its recorder still counts
    cycles (``device.trace.total_cycles``), and its monitor is shown
    every step it cannot settle as quiet; the CPU settles the others
    without building their bundles (4 of a blinker PoX run's 128 steps
    reach the monitor).
    """
    config = TestbenchConfig(architecture=architecture, device_id=device_id,
                             trace_enabled=False)
    return PoxTestbench(firmware, config, pox_verifier=pox_verifier)


@dataclass
class FleetReport:
    """Aggregate outcome of one fleet traffic run."""

    fleet_size: int
    #: Verifier services the devices were split between.
    shard_count: int = 1
    exchanges: int = 0
    accepted: int = 0
    rejected: int = 0
    elapsed_seconds: float = 0.0
    #: Exchange counts per kind ("ra", "apex", "asap").
    per_kind: Dict[str, int] = field(default_factory=dict)
    #: Issued-challenge table sizes once the traffic drained, summed
    #: over the services.
    pending_challenges_after: int = 0
    #: How much each of the services' own counters grew over this run,
    #: summed, for cross-checking: ``service_counters["challenges"]``
    #: equals ``exchanges`` when every exchange got its challenge, also
    #: for a reused fleet.
    service_counters: Dict[str, int] = field(default_factory=dict)
    results: List[ExchangeResult] = field(default_factory=list)

    @property
    def exchanges_per_second(self) -> float:
        """Completed exchanges per wall second (0.0 when nothing was timed)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.exchanges / self.elapsed_seconds

    def all_accepted(self) -> bool:
        """``True`` when the run had exchanges and every one was accepted."""
        return self.exchanges > 0 and self.accepted == self.exchanges

    def publish(self, registry=None):
        """Project the report into ``fleet.*`` registry gauges."""
        registry = registry if registry is not None else get_registry()
        registry.gauge("fleet.size").set(self.fleet_size)
        registry.gauge("fleet.shard_count").set(self.shard_count)
        registry.gauge("fleet.exchanges").set(self.exchanges)
        registry.gauge("fleet.accepted").set(self.accepted)
        registry.gauge("fleet.rejected").set(self.rejected)
        registry.gauge("fleet.elapsed_seconds").set(self.elapsed_seconds)
        registry.gauge("fleet.pending_challenges_after").set(
            self.pending_challenges_after)
        for kind, count in self.per_kind.items():
            registry.gauge("fleet.per_kind.%s" % kind).set(count)


class Fleet:
    """Builds and drives a fleet of provers against ``shards`` services."""

    def __init__(self, size: int, shards: int = 1, architecture: str = "asap",
                 firmware=None):
        if size < 1:
            raise ValueError("fleet size must be >= 1, got %r" % size)
        if shards < 1:
            raise ValueError("shards must be >= 1, got %r" % shards)
        self.size = size
        self.architecture = architecture
        self.firmware = firmware
        self.services = [VerifierService() for _ in range(shards)]
        self.benches: List[PoxTestbench] = []

    def _service_for(self, index) -> VerifierService:
        """The service device *index* is provisioned into and served by."""
        return self.services[index % len(self.services)]

    # ------------------------------------------------------------ setup

    def _build_benches(self):
        """Construct one testbench per device, provisioned into its
        service (PoX deployment *and* plain-RA reference)."""
        if self.benches:
            return
        firmware = self.firmware if self.firmware is not None else \
            blinker_firmware(authorized=True)
        for index in range(self.size):
            service = self._service_for(index)
            bench = build_prover_bench(
                firmware, self.architecture, "prover-%04d" % index,
                pox_verifier=(service.asap if self.architecture == "asap"
                              else service.apex))
            device = bench.device
            # Plain RA attests program memory; the verifier learned the
            # deployed image at provisioning time (snapshot after flash).
            service.verifier.set_reference(bench.config.device_id, [
                (device.layout.program,
                 device.memory.dump_region(device.layout.program)),
            ])
            self.benches.append(bench)

    def _connect(self, bench, index) -> ProverEndpoint:
        client, server_side = loopback_pair()
        task = asyncio.ensure_future(
            self._service_for(index).serve(server_side))
        self._serve_tasks.append((task, server_side))
        return ProverEndpoint(
            bench.config.device_id, bench.device, bench.protocol.device_key,
            client, protocol=bench.protocol,
        )

    # ------------------------------------------------------------ traffic

    def run(self, exchanges_per_device: int = 4, mix=DEFAULT_MIX,
            max_steps: int = 20000) -> FleetReport:
        """Drive ``exchanges_per_device`` exchanges per prover.

        ``mix`` cycles per prover (``("ra",)`` for attestation-only
        traffic, ``("ra", "pox")`` for the default alternation).
        Synchronous wrapper around one fresh event loop.
        """
        return asyncio.run(self.run_async(exchanges_per_device, mix, max_steps))

    async def run_async(self, exchanges_per_device: int = 4, mix=DEFAULT_MIX,
                        max_steps: int = 20000) -> FleetReport:
        mix = tuple(mix)
        if not mix:
            raise ValueError("mix must name at least one exchange kind")
        for kind in mix:
            if kind not in EXCHANGE_KINDS:
                raise ValueError("unknown exchange kind %r in mix" % (kind,))
        self._build_benches()
        counters_before = [dict(service.counters) for service in self.services]
        self._serve_tasks = []
        provers = [self._connect(bench, index)
                   for index, bench in enumerate(self.benches)]
        try:
            started = time.perf_counter()
            outcomes = await asyncio.gather(*[
                self._drive(prover, exchanges_per_device, mix, max_steps)
                for prover in provers
            ])
            elapsed = time.perf_counter() - started
        finally:
            for prover in provers:
                await prover.close()
            # A closed endpoint fails its own serve loop's waiting recv,
            # so every loop returns by itself.
            for _, server_side in self._serve_tasks:
                await server_side.close()
            await asyncio.gather(*(task for task, _ in self._serve_tasks))

        report = FleetReport(fleet_size=self.size,
                             shard_count=len(self.services),
                             elapsed_seconds=elapsed)
        for result in (result for per_prover in outcomes for result in per_prover):
            report.results.append(result)
            report.exchanges += 1
            report.per_kind[result.kind] = report.per_kind.get(result.kind, 0) + 1
            if result.accepted:
                report.accepted += 1
            else:
                report.rejected += 1
        for service, before in zip(self.services, counters_before):
            report.pending_challenges_after += service.pending_challenges
            for key, value in service.counters.items():
                report.service_counters[key] = \
                    report.service_counters.get(key, 0) + value - before.get(key, 0)
        report.publish()
        return report

    async def _drive(self, prover: ProverEndpoint, count, mix, max_steps):
        results = []
        for n in range(count):
            if mix[n % len(mix)] == "ra":
                result = await prover.run_attestation()
            else:
                result = await prover.run_pox(max_steps=max_steps)
            results.append(result)
        return results
