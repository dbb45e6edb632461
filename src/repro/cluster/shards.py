"""Sharded verifier cluster: N verifier services behind a hash ring.

The control plane over :mod:`repro.net`'s data plane.  Each
:class:`VerifierShard` is one independent
:class:`~repro.net.service.VerifierService` -- its own key store, its
own bounded challenge table -- in one of two placements:

``inline``   the service lives on the caller's event loop and provers
             connect over loopback pairs.  Zero setup cost, perfect
             determinism; the placement tier-1 tests use.  (No
             parallelism: everything shares one loop.)
``process``  the service runs in a child process behind a TCP listener
             (spawn context -- forking a live event loop is undefined
             behaviour).  Verifier-side HMAC work then leaves the
             prover process, which is where sharding actually buys
             throughput on multi-core hosts.

:class:`ShardedVerifierCluster` owns the membership: a consistent-hash
ring routes ``device_id -> shard`` (per-device key derivation means
shards share no state), a :class:`~repro.cluster.registry.WorkerRegistry`
tracks liveness from ``ping``/``pong`` heartbeats, and eviction --
heartbeat timeout or explicit -- removes the shard from the ring and
re-enrolls its devices on the survivors from the cluster's enrollment
directory.  In-flight exchanges against the dead shard fail closed:
its challenge table died with it, and challenges are single-use, so
nothing it issued can ever be replayed elsewhere.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.cluster.hashring import DEFAULT_REPLICAS, HashRing
from repro.cluster.metrics import BackpressureGate, ShardStats
from repro.cluster.registry import WorkerRegistry
from repro.net.rpc import RpcChannel
from repro.obs.metrics import Histogram
from repro.net.service import DeviceEnrollment, VerifierService
from repro.net.transport import (
    ClosedTransportError,
    LinkConditions,
    MessageTransport,
    loopback_pair,
    open_tcp_transport,
)

#: Shard placements the cluster can stand up.
PLACEMENTS = ("inline", "process")


def _shard_server_main(channel):
    """Child-process entry point: one shard service on a TCP listener.

    Runs until terminated; posts its bound ``(host, port)`` through
    *channel* once listening.  ``allow_enroll=True`` because the only
    party that can reach this loopback listener is the cluster that
    spawned it.
    """
    service = VerifierService(allow_enroll=True)

    async def main():
        server = await service.listen_tcp(host="127.0.0.1", port=0)
        channel.put(server.sockets[0].getsockname()[:2])
        await asyncio.get_running_loop().create_future()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


class VerifierShard:
    """One verifier service plus the plumbing of its placement."""

    def __init__(self, name: str, placement: str = "inline"):
        if placement not in PLACEMENTS:
            raise ValueError("placement must be one of %s, got %r"
                             % (", ".join(PLACEMENTS), placement))
        self.name = name
        self.placement = placement
        #: The service object (inline placement only; a process shard's
        #: service lives in the child).
        self.service: Optional[VerifierService] = None
        self.process = None
        self.address = None
        #: Control channel for ping/enroll/stats round trips.
        self.control: Optional[RpcChannel] = None
        #: Exchange-latency samples (telemetry-spine histogram: fixed
        #: buckets plus a rolling percentile window).
        self.latency = Histogram()
        self.gate: Optional[BackpressureGate] = None
        self.alive = False
        self._serve_tasks = []

    # ------------------------------------------------------------ lifecycle

    async def start(self):
        if self.placement == "inline":
            self.service = VerifierService(allow_enroll=True)
        else:
            import multiprocessing

            context = multiprocessing.get_context("spawn")
            channel = context.Queue()
            self.process = context.Process(
                target=_shard_server_main, args=(channel,), daemon=True)
            self.process.start()
            # Blocking get: start-up only, before traffic flows.
            self.address = channel.get(timeout=120)
        self.alive = True
        self.control = RpcChannel(await self.connect())

    async def connect(self, conditions: Optional[LinkConditions] = None,
                      ) -> MessageTransport:
        """Open a fresh data-plane transport to this shard."""
        if not self.alive:
            raise ClosedTransportError("shard %s is down" % self.name)
        if self.placement == "inline":
            client, server_side = loopback_pair(conditions)
            task = asyncio.ensure_future(self.service.serve(server_side))
            self._serve_tasks.append((task, server_side))
            return client
        host, port = self.address
        return await open_tcp_transport(host, port, conditions=conditions)

    async def kill(self):
        """Abrupt failure (for testing degradation) -- no goodbyes.

        The shard stops answering, but the cluster is *not* told: the
        heartbeat monitor has to notice the silence and evict, exactly
        as it would for a real crash.
        """
        self.alive = False
        if self.placement == "inline":
            for task, server_side in self._serve_tasks:
                task.cancel()
                await server_side.close()
            self._serve_tasks = []
        elif self.process is not None:
            self.process.terminate()
            self.process.join(timeout=10)

    async def stop(self):
        """Graceful teardown at end of run."""
        if self.control is not None:
            await self.control.close()
            self.control = None
        if self.alive:
            await self.kill()

    # ------------------------------------------------------------ control rpc

    async def ping(self, timeout: float = 0.25) -> bool:
        """One liveness round trip; ``False`` on any failure."""
        if not self.alive or self.control is None:
            return False
        try:
            reply = await asyncio.wait_for(
                self.control.call({"kind": "ping"}), timeout=timeout)
            return reply.get("kind") == "pong"
        except (asyncio.TimeoutError, ClosedTransportError, ConnectionError):
            return False

    async def enroll(self, enrollment: DeviceEnrollment):
        """Provision one device into this shard's verifier."""
        if self.placement == "inline":
            self.service.apply_enrollment(enrollment)
            return
        reply = await self.control.call(
            {"kind": "enroll", "enrollment": enrollment})
        if reply.get("kind") != "enrolled":
            raise RuntimeError("shard %s refused enrollment for %s: %s"
                               % (self.name, enrollment.device_id,
                                  reply.get("reason", "unknown error")))

    async def stats(self, timeout: float = 2.0) -> dict:
        """The shard service's counters (empty when unreachable)."""
        if self.placement == "inline" and self.service is not None:
            # Readable even after a kill: the state is in-process.
            return {"pending_challenges": self.service.pending_challenges,
                    **self.service.counters}
        if not self.alive or self.control is None:
            return {}
        try:
            reply = await asyncio.wait_for(
                self.control.call({"kind": "stats"}), timeout=timeout)
        except (asyncio.TimeoutError, ClosedTransportError, ConnectionError):
            return {}
        return {key: value for key, value in reply.items()
                if key not in ("kind", "seq")}


class ShardedVerifierCluster:
    """Hash-ring membership + heartbeats over N verifier shards."""

    def __init__(self, shards: int = 2, placement: str = "inline",
                 replicas: int = DEFAULT_REPLICAS,
                 heartbeat: Optional[float] = None,
                 heartbeat_timeout: Optional[float] = None,
                 max_inflight: Optional[int] = None,
                 backpressure: str = "delay"):
        """``heartbeat`` is the monitor's ping interval (``None`` runs no
        monitor -- liveness is then whatever explicit ``evict_shard``
        calls say); a shard silent for ``heartbeat_timeout`` seconds
        (default ``3 * heartbeat``) is evicted.  ``max_inflight`` +
        ``backpressure`` configure each shard's admission gate.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1, got %r" % (shards,))
        if heartbeat is not None and heartbeat <= 0:
            raise ValueError("heartbeat must be positive or None")
        if heartbeat_timeout is None and heartbeat is not None:
            heartbeat_timeout = 3 * heartbeat
        self.initial_shards = shards
        self.placement = placement
        self.heartbeat = heartbeat
        self.heartbeat_timeout = heartbeat_timeout
        self.max_inflight = max_inflight
        self.backpressure = backpressure
        self.ring = HashRing(replicas=replicas)
        self.registry = WorkerRegistry(heartbeat_timeout=heartbeat_timeout)
        #: Every shard ever started, by name (evicted ones stay for
        #: post-mortem stats, marked ``alive=False``).
        self.shards: Dict[str, VerifierShard] = {}
        #: Directory of everything needed to (re-)enroll each device.
        self.enrollments: Dict[str, DeviceEnrollment] = {}
        self._placements: Dict[str, str] = {}
        self.counters: Dict[str, int] = {
            "evictions": 0, "rebalanced_devices": 0,
        }
        #: Bumped on every membership change, so routed clients know to
        #: re-resolve their endpoints.
        self.generation = 0
        self._next_index = shards
        self._monitor_task = None
        self._started = False

    # ------------------------------------------------------------ lifecycle

    async def start(self):
        if self._started:
            return
        self._started = True
        for index in range(self.initial_shards):
            await self.add_shard("shard-%d" % index)
        if self.heartbeat is not None:
            self._monitor_task = asyncio.ensure_future(self._monitor())

    async def stop(self):
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for shard in self.shards.values():
            await shard.stop()
        self._started = False

    # ------------------------------------------------------------ membership

    async def add_shard(self, name: Optional[str] = None) -> VerifierShard:
        """Start a shard, join it to the ring, rebalance onto it."""
        if name is None:
            name = "shard-%d" % self._next_index
            self._next_index += 1
        if name in self.shards and self.shards[name].alive:
            raise ValueError("shard %r is already running" % (name,))
        shard = VerifierShard(name, placement=self.placement)
        await shard.start()
        shard.gate = BackpressureGate(self.max_inflight, self.backpressure)
        self.shards[name] = shard
        self.ring.add(name)
        self.registry.join(name, meta={"placement": self.placement,
                                       "address": shard.address})
        self.generation += 1
        await self._rebalance()
        return shard

    async def evict_shard(self, name: str) -> bool:
        """Remove *name* from the ring and re-home its devices.

        Called by the heartbeat monitor on timeout, or directly for a
        planned drain.  Idempotent; ``True`` when the shard was a
        member.  The shard's issued challenges die with its table --
        single-use semantics mean nothing it issued is replayable on
        the survivors, so interrupted exchanges fail closed.
        """
        if name not in self.ring:
            return False
        self.ring.remove(name)
        self.registry.evict(name)
        self.counters["evictions"] += 1
        self.generation += 1
        shard = self.shards.get(name)
        if shard is not None and shard.alive:
            await shard.kill()
        await self._rebalance()
        return True

    async def kill_shard(self, name: str):
        """Simulate a crash: the shard dies, the *cluster is not told*.

        Detection and eviction are the heartbeat monitor's job (tests
        without a monitor call :meth:`evict_shard` themselves).
        """
        await self.shards[name].kill()

    async def _rebalance(self):
        """Re-enroll every device whose ring owner changed."""
        moved = 0
        for device_id, enrollment in self.enrollments.items():
            owner = self.ring.lookup(device_id)
            if owner is None or owner == self._placements.get(device_id):
                continue
            await self.shards[owner].enroll(enrollment)
            previously_placed = device_id in self._placements
            self._placements[device_id] = owner
            if previously_placed:
                moved += 1
        self.counters["rebalanced_devices"] += moved

    # ------------------------------------------------------------ devices

    async def enroll_device(self, enrollment: DeviceEnrollment) -> str:
        """Record *enrollment* and provision it on its owning shard."""
        self.enrollments[enrollment.device_id] = enrollment
        owner = self.ring.lookup(enrollment.device_id)
        if owner is None:
            raise RuntimeError("cannot enroll %r: no live shards"
                               % (enrollment.device_id,))
        await self.shards[owner].enroll(enrollment)
        self._placements[enrollment.device_id] = owner
        return owner

    def shard_for(self, device_id: str) -> VerifierShard:
        """The live shard currently owning *device_id*."""
        owner = self.ring.lookup(device_id)
        if owner is None:
            raise RuntimeError("no live shards remain")
        return self.shards[owner]

    def live_shards(self) -> List[VerifierShard]:
        return [self.shards[name] for name in self.ring.nodes]

    # ------------------------------------------------------------ liveness

    async def _monitor(self):
        """Ping every member each interval; evict the silent ones."""
        while True:
            await asyncio.sleep(self.heartbeat)
            for name in self.registry.names():
                shard = self.shards[name]
                # The ping timeout stays inside the interval so one
                # dead shard cannot stall the whole sweep past the
                # others' timeouts.
                if await shard.ping(timeout=self.heartbeat):
                    self.registry.beat(name)
            for name in self.registry.dead():
                await self.evict_shard(name)

    # ------------------------------------------------------------ metrics

    async def shard_stats(self) -> List[ShardStats]:
        """A :class:`ShardStats` per shard ever started (dead included)."""
        out = []
        for name, shard in self.shards.items():
            counters = await shard.stats()
            out.append(ShardStats(
                shard=name,
                pending_challenges=counters.pop("pending_challenges", 0),
                service_counters=counters,
                p50_seconds=shard.latency.p50,
                p99_seconds=shard.latency.p99,
                shed=shard.gate.shed if shard.gate else 0,
                alive=shard.alive and name in self.ring,
            ))
        return out
