"""Unit tests for the cluster control plane's passive pieces.

The registry (membership + liveness with an injected clock), the
consistent-hash ring (deterministic placement, ~1/N movement on
membership change), the latency histogram / report containers (the
single-service ``FleetReport`` included) and the backpressure gate -- everything here is plain bookkeeping, exercised
without sockets or event loops (except the gate, which is an asyncio
semaphore by construction).
"""

import asyncio

import pytest

from repro.cluster import HashRing, WorkerRegistry
from repro.cluster.metrics import (
    BackpressureGate,
    ClusterReport,
    ShardStats,
)
from repro.net.fleet import FleetReport
from repro.obs.metrics import Histogram, MetricsRegistry


class FakeClock:
    """Injectable monotonic clock."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestWorkerRegistry:
    def make(self, timeout=1.0):
        clock = FakeClock()
        return WorkerRegistry(heartbeat_timeout=timeout, clock=clock), clock

    def test_join_beat_and_liveness(self):
        registry, clock = self.make()
        registry.join("w1")
        assert "w1" in registry and len(registry) == 1
        assert registry.alive("w1")
        clock.advance(0.9)
        assert registry.alive("w1") and registry.dead() == []
        assert registry.beat("w1")
        clock.advance(0.9)
        # The beat reset the liveness clock.
        assert registry.alive("w1")
        assert registry.get("w1").beats == 1
        assert registry.counters["beats"] == 1

    def test_silent_worker_goes_dead_after_timeout(self):
        registry, clock = self.make(timeout=1.0)
        registry.join("w1")
        registry.join("w2")
        registry.beat("w2")
        clock.advance(1.5)
        registry.beat("w2")
        assert registry.dead() == ["w1"]
        assert not registry.alive("w1") and registry.alive("w2")

    def test_evict_counts_and_removes(self):
        registry, clock = self.make()
        registry.join("w1")
        clock.advance(2.0)
        assert registry.evict("w1")
        assert "w1" not in registry
        assert registry.counters["evictions"] == 1
        # A second eviction of the same name is a no-op.
        assert not registry.evict("w1")
        assert registry.counters["evictions"] == 1

    def test_late_beat_does_not_resurrect_evicted_worker(self):
        registry, clock = self.make()
        registry.join("w1")
        clock.advance(2.0)
        registry.evict("w1")
        assert not registry.beat("w1")  # the straggler heartbeat
        assert "w1" not in registry and not registry.alive("w1")
        # Only an explicit re-join brings it back.
        registry.join("w1")
        assert registry.alive("w1")

    def test_rejoin_resets_the_record(self):
        registry, clock = self.make(timeout=1.0)
        registry.join("w1")
        clock.advance(0.5)
        registry.beat("w1")
        clock.advance(0.9)
        record = registry.join("w1")
        assert len(registry) == 1 and registry.get("w1") is record
        assert record.joined_at == record.last_beat == clock.now
        assert record.beats == 0
        assert registry.counters["joins"] == 2
        clock.advance(0.9)
        assert registry.alive("w1")

    def test_leave_vs_evict_counters(self):
        registry, _clock = self.make()
        registry.join("w1")
        registry.join("w2")
        assert registry.leave("w1")
        assert not registry.leave("w1")
        assert registry.counters["leaves"] == 1
        assert registry.names() == ["w2"]

    def test_no_timeout_means_never_dead(self):
        clock = FakeClock()
        registry = WorkerRegistry(heartbeat_timeout=None, clock=clock)
        registry.join("w1")
        clock.advance(1e6)
        assert registry.dead() == [] and registry.alive("w1")

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            WorkerRegistry(heartbeat_timeout=0.0)


class TestHashRing:
    def test_lookup_is_deterministic_and_member(self):
        ring = HashRing(["a", "b", "c"])
        keys = ["prover-%04d" % n for n in range(200)]
        placement = ring.placement(keys)
        assert set(placement.values()) <= {"a", "b", "c"}
        # Same membership, fresh ring: identical placement.
        assert HashRing(["a", "b", "c"]).placement(keys) == placement

    def test_every_node_owns_some_keys(self):
        ring = HashRing(["a", "b", "c"])
        keys = ["prover-%04d" % n for n in range(300)]
        owners = set(ring.placement(keys).values())
        assert owners == {"a", "b", "c"}

    def test_membership_change_moves_a_minority_of_keys(self):
        keys = ["prover-%04d" % n for n in range(400)]
        ring = HashRing(["a", "b", "c", "d"])
        before = ring.placement(keys)
        ring.remove("d")
        after = ring.placement(keys)
        moved = sum(1 for key in keys if before[key] != after[key])
        # Removing one of four nodes must move ~1/4 of the keys; under
        # half is the (generous) consistency bar, and survivors' keys
        # must not move at all.
        assert 0 < moved < len(keys) // 2
        for key in keys:
            if before[key] != "d":
                assert after[key] == before[key]

    def test_add_is_the_inverse_of_remove(self):
        keys = ["prover-%04d" % n for n in range(200)]
        ring = HashRing(["a", "b"])
        before = ring.placement(keys)
        ring.add("c")
        ring.remove("c")
        assert ring.placement(keys) == before

    def test_duplicate_add_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError, match="already"):
            ring.add("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(KeyError):
            HashRing(["a"]).remove("b")

    def test_empty_ring_lookup_is_none(self):
        assert HashRing().lookup("prover-0000") is None
        assert len(HashRing()) == 0

    def test_invalid_replicas_rejected(self):
        with pytest.raises(ValueError, match="replicas"):
            HashRing(replicas=0)


class TestShardLatencyHistogram:
    """The shards' latency sampler is the telemetry-spine Histogram;
    these pin the LatencyRecorder semantics it replaced."""

    def test_percentiles_over_known_samples(self):
        recorder = Histogram()
        for value in range(1, 101):  # 1..100
            recorder.record(float(value))
        assert recorder.p50 == pytest.approx(50.0, abs=1.0)
        assert recorder.p99 == pytest.approx(99.0, abs=1.0)
        assert recorder.count == 100

    def test_empty_recorder_answers_zero(self):
        assert Histogram().p50 == 0.0
        assert Histogram().p99 == 0.0

    def test_window_is_bounded(self):
        recorder = Histogram(window=10)
        for value in range(100):
            recorder.record(float(value))
        # Only the most recent 10 samples (90..99) remain.
        assert recorder.count == 100
        assert recorder.percentile(0.0) == 90.0

    def test_bad_fraction_rejected(self):
        recorder = Histogram()
        recorder.record(1.0)
        with pytest.raises(ValueError, match="fraction"):
            recorder.percentile(1.5)


class TestBackpressureGate:
    def test_unbounded_gate_admits_everything(self):
        async def body():
            gate = BackpressureGate()
            assert await gate.acquire() and await gate.acquire()
            assert gate.inflight == 2
            gate.release()
            gate.release()
            assert gate.delayed == 0 and gate.shed == 0

        asyncio.run(body())

    def test_shed_mode_refuses_at_capacity(self):
        async def body():
            gate = BackpressureGate(max_inflight=1, mode="shed")
            assert await gate.acquire()
            assert not await gate.acquire()  # saturated: refused
            assert gate.shed == 1 and gate.inflight == 1
            gate.release()
            assert await gate.acquire()  # slot freed: admitted again

        asyncio.run(body())

    def test_delay_mode_waits_for_a_slot(self):
        async def body():
            gate = BackpressureGate(max_inflight=1, mode="delay")
            assert await gate.acquire()
            waiter = asyncio.ensure_future(gate.acquire())
            await asyncio.sleep(0.01)
            assert not waiter.done()  # parked at the gate, not refused
            gate.release()
            assert await waiter
            assert gate.delayed == 1 and gate.shed == 0

        asyncio.run(body())

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            BackpressureGate(mode="drop")
        with pytest.raises(ValueError, match="max_inflight"):
            BackpressureGate(max_inflight=0)


class TestClusterReport:
    def test_all_accepted_requires_traffic(self):
        report = ClusterReport(fleet_size=4, shard_count=2)
        assert not report.all_accepted()  # zero exchanges is not success
        report.exchanges = report.accepted = 8
        assert report.all_accepted()
        report.rejected = 1
        report.exchanges = 9
        assert not report.all_accepted()

    def test_shard_lookup(self):
        report = ClusterReport(fleet_size=1, shard_count=1,
                               shards=[ShardStats(shard="shard-0")])
        assert report.shard("shard-0").shard == "shard-0"
        assert report.shard("missing") is None

    def test_exchange_rate(self):
        report = ClusterReport(fleet_size=1, shard_count=1,
                               exchanges=10, elapsed_seconds=2.0)
        assert report.exchanges_per_second == 5.0
        # Zero elapsed time is no rate at all, never float("inf").
        report.elapsed_seconds = 0.0
        assert report.exchanges_per_second == 0.0

    def test_publish_projects_report_into_registry(self):
        report = ClusterReport(
            fleet_size=4, shard_count=2, exchanges=16, accepted=14,
            rejected=1, timed_out=1, shed=3, delayed=2,
            per_kind={"ra": 8, "pox": 8},
            shards=[ShardStats(shard="shard-0", exchanges=9, shed=3,
                               pending_challenges=1, p50_seconds=0.5),
                    ShardStats(shard="shard-1", exchanges=7, alive=False)])
        registry = MetricsRegistry(collect=False)
        report.publish(registry)
        snapshot = registry.snapshot()
        gauges = snapshot["gauges"]
        assert gauges["cluster.exchanges"] == 16
        assert gauges["cluster.shed"] == 3
        assert gauges["cluster.per_kind.pox"] == 8
        assert gauges["cluster.shard-0.shed"] == 3
        assert gauges["cluster.shard-0.p50_seconds"] == 0.5
        assert gauges["cluster.shard-1.alive"] == 0


class TestFleetReport:
    def test_exchange_rate(self):
        report = FleetReport(fleet_size=1, exchanges=10, elapsed_seconds=2.0)
        assert report.exchanges_per_second == 5.0
        report.elapsed_seconds = 0.0
        assert report.exchanges_per_second == 0.0
