"""Fleet harness: N simulated devices against one verifier service.

:class:`Fleet` stands up a :class:`~repro.net.service.VerifierService`,
builds *size* simulated devices (each a full
:class:`~repro.firmware.testbench.PoxTestbench` device with its own
monitor, provisioned into the service's shared verifier), connects a
:class:`~repro.net.prover.ProverEndpoint` per device over the chosen
transport -- in-process loopback or a real TCP socket pair, both
optionally impaired with :class:`~repro.net.transport.LinkConditions`
-- and drives sustained mixed RA/PoX traffic with per-exchange
deadlines.  ``Fleet(32).run()`` is the "thousands of provers, one
verifier" shape of the paper's deployment story scaled to a unit test;
``benchmarks/test_bench_fleet.py`` sweeps the fleet size and records
exchanges/sec into ``BENCH_fleet.json``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.firmware.blinker import blinker_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.net.prover import ExchangeResult, ProverEndpoint
from repro.net.rpc import RetryPolicy
from repro.net.service import VerifierService
from repro.net.transport import (
    LinkConditions,
    loopback_pair,
    open_tcp_transport,
)
from repro.obs.metrics import get_registry

#: Transport flavours :class:`Fleet` can stand up.
TRANSPORTS = ("loopback", "tcp")

#: Default exchange mix: alternate plain RA with proofs of execution.
DEFAULT_MIX = ("ra", "pox")


def build_prover_bench(firmware, architecture, device_id,
                       pox_verifier=None) -> PoxTestbench:
    """One fleet device: a full testbench provisioned for *architecture*.

    With ``pox_verifier`` the deployment registers into that shared
    verifier (the single-service :class:`Fleet` path); without it the
    bench provisions a private local verifier, which the cluster layer
    then mines for a shippable
    :class:`~repro.net.service.DeviceEnrollment`.

    The device records no trace, as a deployed prover keeps none:
    nothing on the fleet path reads one.  Its recorder still counts
    cycles (``device.trace.total_cycles``), and every monitor still
    observes every step.
    """
    config = TestbenchConfig(architecture=architecture, device_id=device_id,
                             trace_enabled=False)
    return PoxTestbench(firmware, config, pox_verifier=pox_verifier)


@dataclass
class FleetReport:
    """Aggregate outcome of one fleet traffic run."""

    fleet_size: int
    exchanges: int = 0
    accepted: int = 0
    rejected: int = 0
    timed_out: int = 0
    #: Requests retransmitted by the retry layer across all provers.
    retransmits: int = 0
    elapsed_seconds: float = 0.0
    #: Exchange counts per kind ("ra", "apex", "asap").
    per_kind: Dict[str, int] = field(default_factory=dict)
    #: Issued-challenge table size once the traffic drained.
    pending_challenges_after: int = 0
    #: The service's own counters, for cross-checking.
    service_counters: Dict[str, int] = field(default_factory=dict)
    results: List[ExchangeResult] = field(default_factory=list)

    @property
    def exchanges_per_second(self) -> float:
        """Completed exchanges per wall second (0.0 when nothing was timed)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.exchanges / self.elapsed_seconds

    def all_accepted(self) -> bool:
        """``True`` when every exchange completed and was accepted."""
        return self.accepted == self.exchanges

    def publish(self, registry=None):
        """Project the report into ``fleet.*`` registry gauges."""
        registry = registry if registry is not None else get_registry()
        registry.gauge("fleet.size").set(self.fleet_size)
        registry.gauge("fleet.exchanges").set(self.exchanges)
        registry.gauge("fleet.accepted").set(self.accepted)
        registry.gauge("fleet.rejected").set(self.rejected)
        registry.gauge("fleet.timed_out").set(self.timed_out)
        registry.gauge("fleet.retransmits").set(self.retransmits)
        registry.gauge("fleet.elapsed_seconds").set(self.elapsed_seconds)
        registry.gauge("fleet.pending_challenges_after").set(
            self.pending_challenges_after)
        for kind, count in self.per_kind.items():
            registry.gauge("fleet.per_kind.%s" % kind).set(count)


class Fleet:
    """Builds and drives a fleet of provers against one service."""

    def __init__(self, size: int, architecture: str = "asap",
                 firmware=None, transport: str = "loopback",
                 conditions: Optional[LinkConditions] = None,
                 deadline: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 service: Optional[VerifierService] = None):
        if size < 1:
            raise ValueError("fleet size must be >= 1, got %r" % size)
        if transport not in TRANSPORTS:
            raise ValueError("transport must be one of %s, got %r"
                             % (", ".join(TRANSPORTS), transport))
        if (conditions is not None and (conditions.loss or conditions.reorder)
                and deadline is None
                and (retry is None or not retry.bounded)):
            # A dropped (or indefinitely held) message would leave that
            # prover awaiting a reply forever.  Either bound: a
            # per-exchange deadline turns loss into a clean timeout, a
            # bounded retry schedule exhausts into one -- but with
            # neither (or an unlimited retry schedule and no deadline)
            # a run could hang, so refuse the configuration up front.
            raise ValueError(
                "lossy/reordering link conditions require a per-exchange "
                "deadline or a bounded retry policy (got conditions=%r "
                "with deadline=None, retry=%r)" % (conditions, retry))
        self.size = size
        self.architecture = architecture
        self.firmware = firmware
        self.transport = transport
        self.conditions = conditions
        self.deadline = deadline
        self.retry = retry
        self.service = service or VerifierService()
        self.benches: List[PoxTestbench] = []

    # ------------------------------------------------------------ setup

    def _build_benches(self):
        """Construct one testbench per device, provisioned into the
        shared service (PoX deployment *and* plain-RA reference)."""
        if self.benches:
            return
        firmware = self.firmware if self.firmware is not None else \
            blinker_firmware(authorized=True)
        shared = (self.service.asap if self.architecture == "asap"
                  else self.service.apex)
        verifier = self.service.verifier
        for index in range(self.size):
            bench = build_prover_bench(
                firmware, self.architecture, "prover-%04d" % index,
                pox_verifier=shared)
            config = bench.config
            device = bench.device
            # Plain RA attests program memory; the verifier learned the
            # deployed image at provisioning time (snapshot after flash).
            verifier.set_reference(config.device_id, [
                (device.layout.program,
                 device.memory.dump_region(device.layout.program)),
            ])
            self.benches.append(bench)

    def _link_conditions(self, index):
        """Per-prover impairments: same parameters, independent draws.

        Every link gets its own seed; correlated randomness would make
        one unlucky loss pattern strike the whole fleet in lockstep.
        """
        if self.conditions is None:
            return None
        return dataclasses.replace(self.conditions,
                                   seed=self.conditions.seed + 1000 * index)

    async def _connect(self, bench, index) -> ProverEndpoint:
        conditions = self._link_conditions(index)
        if self.transport == "tcp":
            host, port = self._server.sockets[0].getsockname()[:2]
            client = await open_tcp_transport(host, port,
                                              conditions=conditions)
        else:
            client, server_side = loopback_pair(conditions)
            task = asyncio.ensure_future(self.service.serve(server_side))
            self._serve_tasks.append((task, server_side))
        return ProverEndpoint(
            bench.config.device_id, bench.device, bench.protocol.device_key,
            client, protocol=bench.protocol, retry=self.retry,
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
        self._build_benches()
        self._serve_tasks = []
        self._server = None
        if self.transport == "tcp":
            self._server = await self.service.listen_tcp(
                conditions=self.conditions)
        provers = [await self._connect(bench, index)
                   for index, bench in enumerate(self.benches)]
        try:
            started = time.perf_counter()
            outcomes = await asyncio.gather(*[
                self._drive(prover, exchanges_per_device, mix, max_steps)
                for prover in provers
            ])
            elapsed = time.perf_counter() - started
            retransmits = sum(prover.retransmits for prover in provers)
        finally:
            for prover in provers:
                await prover.close()
            for task, server_side in self._serve_tasks:
                await server_side.close()
                task.cancel()
            if self._serve_tasks:
                await asyncio.gather(
                    *(task for task, _ in self._serve_tasks),
                    return_exceptions=True,
                )
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()

        report = FleetReport(fleet_size=self.size, elapsed_seconds=elapsed,
                             retransmits=retransmits)
        for result in (result for per_prover in outcomes for result in per_prover):
            report.results.append(result)
            report.exchanges += 1
            report.per_kind[result.kind] = report.per_kind.get(result.kind, 0) + 1
            if result.timed_out:
                report.timed_out += 1
            elif result.accepted:
                report.accepted += 1
            else:
                report.rejected += 1
        report.pending_challenges_after = self.service.pending_challenges
        report.service_counters = dict(self.service.counters)
        report.publish()
        return report

    async def _drive(self, prover: ProverEndpoint, count, mix, max_steps):
        results = []
        for n in range(count):
            kind = mix[n % len(mix)]
            if kind == "ra":
                result = await prover.run_attestation(deadline=self.deadline)
            elif kind == "pox":
                result = await prover.run_pox(deadline=self.deadline,
                                              max_steps=max_steps)
            else:
                raise ValueError("unknown exchange kind %r in mix" % (kind,))
            results.append(result)
        return results
