"""Cluster fleet harness: N devices routed across verifier shards.

The sharded counterpart of :class:`~repro.net.fleet.Fleet`: builds the
same simulated prover devices, but instead of one shared
:class:`~repro.net.service.VerifierService` each device is enrolled --
via a shippable :class:`~repro.net.service.DeviceEnrollment` -- on the
shard the cluster's hash ring assigns it, and every exchange is
admitted through that shard's backpressure gate.  Device-to-shard
routing is re-resolved whenever cluster membership changes, so a fleet
survives a mid-run shard kill: the heartbeat monitor evicts the dead
shard, its devices re-enroll on the survivors, interrupted exchanges
fail closed (single-use challenges died with the shard's table), and
subsequent traffic completes on the new owners.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster.metrics import ClusterReport
from repro.cluster.shards import ShardedVerifierCluster, VerifierShard
from repro.firmware.blinker import blinker_firmware
from repro.net.fleet import DEFAULT_MIX, build_prover_bench
from repro.net.prover import ExchangeResult, ProverEndpoint
from repro.net.rpc import RetryPolicy
from repro.net.service import provision_enrollment
from repro.net.transport import ClosedTransportError, LinkConditions


class ClusterFleet:
    """Drives a device fleet through a sharded verifier cluster."""

    def __init__(self, size: int, shards: int = 2, architecture: str = "asap",
                 firmware=None, placement: str = "inline",
                 conditions: Optional[LinkConditions] = None,
                 deadline: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 heartbeat: Optional[float] = None,
                 heartbeat_timeout: Optional[float] = None,
                 max_inflight: Optional[int] = None,
                 backpressure: str = "delay",
                 cluster: Optional[ShardedVerifierCluster] = None):
        if size < 1:
            raise ValueError("fleet size must be >= 1, got %r" % (size,))
        if (conditions is not None and (conditions.loss or conditions.reorder)
                and deadline is None
                and (retry is None or not retry.bounded)):
            # Same rule as Fleet: loss needs a bound -- a deadline or a
            # bounded retry schedule -- or an unlucky drop hangs the run.
            raise ValueError(
                "lossy/reordering link conditions require a per-exchange "
                "deadline or a bounded retry policy")
        self.size = size
        self.architecture = architecture
        self.firmware = firmware
        self.conditions = conditions
        self.deadline = deadline
        self.retry = retry
        self.cluster = cluster or ShardedVerifierCluster(
            shards=shards, placement=placement,
            heartbeat=heartbeat, heartbeat_timeout=heartbeat_timeout,
            max_inflight=max_inflight, backpressure=backpressure,
        )
        self.benches = []
        #: device_id -> (shard, endpoint) currently serving that device.
        self._endpoints: Dict[str, Tuple[VerifierShard, ProverEndpoint]] = {}
        self._all_endpoints: List[ProverEndpoint] = []
        self._device_index: Dict[str, int] = {}
        self._completed = 0
        self._progress: Optional[asyncio.Event] = None
        #: Per-shard outcome tallies, folded into the report's ShardStats.
        self._shard_tallies: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------ setup

    def _build_benches(self):
        if self.benches:
            return
        firmware = self.firmware if self.firmware is not None else \
            blinker_firmware(authorized=True)
        for index in range(self.size):
            device_id = "prover-%04d" % index
            # No shared verifier: the bench provisions a throwaway
            # local one, and provision_enrollment() lifts the
            # verifier-side state out for whichever shard owns it.
            bench = build_prover_bench(firmware, self.architecture, device_id)
            self._device_index[device_id] = index
            self.benches.append(bench)

    def _link_conditions(self, device_id):
        if self.conditions is None:
            return None
        return dataclasses.replace(
            self.conditions,
            seed=self.conditions.seed + 1000 * self._device_index[device_id])

    async def _endpoint_for(self, bench) -> Tuple[ProverEndpoint, VerifierShard]:
        """The device's endpoint on its *current* shard.

        Re-resolves after membership changes: a cached endpoint bound
        to an evicted (or killed) shard is dropped and a fresh
        connection is opened to the new ring owner.
        """
        device_id = bench.config.device_id
        shard = self.cluster.shard_for(device_id)
        if not shard.alive:
            shard = await self._await_failover(device_id, shard)
        cached = self._endpoints.get(device_id)
        if cached is not None:
            old_shard, endpoint = cached
            if old_shard is shard and shard.alive:
                return endpoint, shard
            await endpoint.close()
            del self._endpoints[device_id]
        transport = await shard.connect(self._link_conditions(device_id))
        endpoint = ProverEndpoint(
            device_id, bench.device, bench.protocol.device_key,
            transport, protocol=bench.protocol, retry=self.retry,
        )
        self._endpoints[device_id] = (shard, endpoint)
        self._all_endpoints.append(endpoint)
        return endpoint, shard

    async def _await_failover(self, device_id, shard) -> VerifierShard:
        """Wait (briefly) for the monitor to evict a dead owner.

        A device whose shard just died would otherwise burn its whole
        remaining exchange budget on instant fail-closed errors in the
        window before the heartbeat timeout fires; real clients wait
        out the failover instead.  Bounded by a grace period of a few
        heartbeat timeouts -- if membership never changes (no monitor
        running, or the whole cluster is down) the dead shard comes
        back to the caller, which fails the exchange closed.
        """
        timeout = self.cluster.heartbeat_timeout
        if timeout is None:
            return shard
        loop = asyncio.get_running_loop()
        give_up = loop.time() + 4 * timeout
        while not shard.alive and loop.time() < give_up:
            await asyncio.sleep(min(timeout / 4, 0.05))
            shard = self.cluster.shard_for(device_id)
        return shard

    # ------------------------------------------------------------ traffic

    def run(self, exchanges_per_device: int = 4, mix=DEFAULT_MIX,
            max_steps: int = 20000, kill_shard: Optional[str] = None,
            kill_after_exchanges: Optional[int] = None) -> ClusterReport:
        """Synchronous wrapper around one fresh event loop.

        ``kill_shard`` names a shard to crash mid-run, once
        ``kill_after_exchanges`` exchanges have completed (default:
        a quarter of the total) -- the degradation path the heartbeat
        monitor then has to absorb.
        """
        return asyncio.run(self.run_async(
            exchanges_per_device, mix, max_steps,
            kill_shard=kill_shard, kill_after_exchanges=kill_after_exchanges))

    async def run_async(self, exchanges_per_device: int = 4, mix=DEFAULT_MIX,
                        max_steps: int = 20000,
                        kill_shard: Optional[str] = None,
                        kill_after_exchanges: Optional[int] = None,
                        ) -> ClusterReport:
        self._build_benches()
        self._progress = asyncio.Event()
        await self.cluster.start()
        for bench in self.benches:
            await self.cluster.enroll_device(provision_enrollment(bench))
        killer = None
        if kill_shard is not None:
            if kill_after_exchanges is None:
                kill_after_exchanges = max(
                    1, self.size * exchanges_per_device // 4)
            killer = asyncio.ensure_future(
                self._kill_when(kill_shard, kill_after_exchanges))
        try:
            started = time.perf_counter()
            outcomes = await asyncio.gather(*[
                self._drive(bench, exchanges_per_device, mix, max_steps)
                for bench in self.benches
            ])
            elapsed = time.perf_counter() - started
            # Folded before teardown: shard stats and liveness must
            # reflect the run, not the shutdown.
            report = await self._fold_report(outcomes, elapsed)
        finally:
            if killer is not None:
                killer.cancel()
                await asyncio.gather(killer, return_exceptions=True)
            for _, endpoint in self._endpoints.values():
                await endpoint.close()
            self._endpoints.clear()
            await self.cluster.stop()
        return report

    async def _kill_when(self, name: str, threshold: int):
        # Event-driven, not polled: a small fleet of fast RA exchanges
        # can drain in single-digit milliseconds, and a sleep-loop
        # killer would fire only after the traffic it was meant to
        # disrupt is gone.
        while self._completed < threshold:
            self._progress.clear()
            await self._progress.wait()
        await self.cluster.kill_shard(name)

    def _note_progress(self):
        self._completed += 1
        if self._progress is not None:
            self._progress.set()

    async def _drive(self, bench, count, mix, max_steps):
        results = []
        for n in range(count):
            kind = mix[n % len(mix)]
            try:
                endpoint, shard = await self._endpoint_for(bench)
            except (RuntimeError, ClosedTransportError) as error:
                # No live owner right now (mid-eviction window): the
                # exchange fails closed rather than blocking the fleet.
                results.append((None, ExchangeResult(
                    kind=kind, reason="no shard available: %s" % error)))
                self._note_progress()
                continue
            gate = shard.gate
            admitted = await gate.acquire() if gate is not None else True
            if not admitted:
                results.append((shard.name, ExchangeResult(
                    kind=kind, reason="shed by backpressure gate")))
                self._note_progress()
                continue
            try:
                if kind == "ra":
                    result = await endpoint.run_attestation(deadline=self.deadline)
                elif kind == "pox":
                    result = await endpoint.run_pox(deadline=self.deadline,
                                                    max_steps=max_steps)
                else:
                    raise ValueError("unknown exchange kind %r in mix" % (kind,))
            except ClosedTransportError as error:
                # The shard died under this exchange; next iteration
                # re-resolves to a survivor.
                result = ExchangeResult(kind=kind, timed_out=True,
                                        reason="shard connection lost: %s" % error)
            finally:
                if gate is not None:
                    gate.release()
            shard.latency.record(result.elapsed_seconds)
            results.append((shard.name, result))
            self._note_progress()
        return results

    # ------------------------------------------------------------ report

    async def _fold_report(self, outcomes, elapsed) -> ClusterReport:
        report = ClusterReport(
            fleet_size=self.size,
            shard_count=len(self.cluster.ring),
            elapsed_seconds=elapsed,
            retransmits=sum(e.retransmits for e in self._all_endpoints),
            evictions=self.cluster.counters["evictions"],
            rebalanced_devices=self.cluster.counters["rebalanced_devices"],
        )
        tallies: Dict[str, Dict[str, int]] = {}
        for shard_name, result in (item for per_device in outcomes
                                   for item in per_device):
            tally = tallies.setdefault(shard_name, {
                "exchanges": 0, "accepted": 0, "rejected": 0,
                "timed_out": 0, "shed": 0})
            if result.reason == "shed by backpressure gate":
                report.shed += 1
                tally["shed"] += 1
                continue
            report.exchanges += 1
            tally["exchanges"] += 1
            report.per_kind[result.kind] = report.per_kind.get(result.kind, 0) + 1
            if result.timed_out:
                report.timed_out += 1
                tally["timed_out"] += 1
            elif result.accepted:
                report.accepted += 1
                tally["accepted"] += 1
            else:
                report.rejected += 1
                tally["rejected"] += 1
        report.delayed = sum(
            shard.gate.delayed for shard in self.cluster.shards.values()
            if shard.gate is not None)
        report.shards = await self.cluster.shard_stats()
        for stats in report.shards:
            tally = tallies.get(stats.shard)
            if tally is None:
                continue
            stats.exchanges = tally["exchanges"]
            stats.accepted = tally["accepted"]
            stats.rejected = tally["rejected"]
            stats.timed_out = tally["timed_out"]
        # The report *is* the registry view: project it so a snapshot
        # taken after the run carries cluster.* alongside engine.*
        # and service.* metrics.
        report.publish()
        return report
