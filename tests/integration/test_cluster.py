"""Integration tests for the sharded verifier cluster control plane.

The acceptance bars pinned here:

* a lossy fleet **with** retries completes every exchange
  (``all_accepted``), while the *same seeded run* without retries
  times exchanges out -- retransmission is what buys completeness;
* killing a shard mid-run is detected by the heartbeat monitor, the
  shard is evicted, its devices re-enroll on the survivor (in-flight
  exchanges complete there or fail closed) and the run still drains;
* the backpressure gate sheds or delays visibly, never silently;
* no service accepts enrollment over the wire: an ``enroll`` message
  gets an error reply, because enrollment hands out device keys and
  the cluster applies it in-process.
"""

import asyncio

import pytest

from repro.cluster import (
    ClusterFleet,
    RetryPolicy,
    ShardedVerifierCluster,
    VerifierShard,
)
from repro.firmware.blinker import blinker_firmware
from repro.net import (
    ClosedTransportError,
    Fleet,
    LinkConditions,
    VerifierService,
    build_prover_bench,
    loopback_pair,
    provision_enrollment,
)

#: The pinned lossy link: 20% loss, deterministic seed.
LOSSY = LinkConditions(loss=0.2, seed=7)


def run(coroutine):
    return asyncio.run(coroutine)


class TestRetriesUnderLoss:
    def test_lossy_fleet_with_retries_completes_everything(self):
        # The satellite's acceptance pin: loss=0.2 plus a bounded retry
        # schedule => every exchange accepted, zero timeouts, and the
        # recovery is visible as a nonzero retransmit count.
        fleet = Fleet(4, architecture="asap", conditions=LOSSY,
                      retry=RetryPolicy(max_attempts=8, base_timeout=0.03))
        report = fleet.run(exchanges_per_device=2, mix=("ra",))
        assert report.exchanges == 8
        assert report.all_accepted(), \
            [r.reason for r in report.results if not r.accepted]
        assert report.timed_out == 0
        assert report.retransmits > 0

    def test_same_lossy_run_without_retries_times_out(self):
        # Identical fleet, identical seeded loss, no retry layer: the
        # only bound is the per-exchange deadline, and dropped frames
        # burn whole exchanges.
        fleet = Fleet(4, architecture="asap", conditions=LOSSY,
                      deadline=0.25)
        report = fleet.run(exchanges_per_device=2, mix=("ra",))
        assert report.exchanges == 8
        assert report.timed_out > 0
        assert not report.all_accepted()
        assert report.retransmits == 0

    def test_unbounded_loss_configuration_is_refused(self):
        with pytest.raises(ValueError, match="retry"):
            Fleet(2, conditions=LOSSY)  # no deadline, no retry
        with pytest.raises(ValueError, match="retry"):
            ClusterFleet(2, conditions=LOSSY,
                         retry=RetryPolicy(max_attempts=None))

    def test_cluster_fleet_with_retries_survives_loss(self):
        fleet = ClusterFleet(4, shards=2, architecture="asap",
                             conditions=LOSSY,
                             retry=RetryPolicy(max_attempts=8,
                                               base_timeout=0.03))
        report = fleet.run(exchanges_per_device=2, mix=("ra",))
        assert report.all_accepted()
        assert report.retransmits > 0


class TestShardedCluster:
    def test_two_shard_fleet_routes_and_accepts(self):
        fleet = ClusterFleet(8, shards=2, architecture="asap")
        report = fleet.run(exchanges_per_device=2, mix=("ra", "pox"))
        assert report.exchanges == 16
        assert report.all_accepted()
        assert report.shard_count == 2
        # Both shards saw traffic (64 virtual nodes spread 8 devices).
        busy = [stats for stats in report.shards if stats.exchanges]
        assert len(busy) == 2
        assert sum(stats.exchanges for stats in report.shards) == 16
        # Challenge tables drained on every shard.
        assert all(stats.pending_challenges == 0 for stats in report.shards)
        # Latency percentiles were recorded for loaded shards.
        assert all(stats.p99_seconds >= stats.p50_seconds > 0
                   for stats in busy)

    def test_kill_shard_evicts_and_fails_over(self):
        # Kill one shard a quarter of the way in: the heartbeat monitor
        # must evict it, the ring must re-home its devices, and every
        # remaining exchange must complete on the survivor or fail
        # closed -- the run itself always drains.
        fleet = ClusterFleet(8, shards=2, architecture="asap",
                             heartbeat=0.05, deadline=2.0)
        victim = "shard-0"
        report = fleet.run(exchanges_per_device=4, mix=("ra",),
                           kill_shard=victim)
        assert report.evictions == 1
        assert report.rebalanced_devices > 0
        assert report.shard_count == 1  # the survivor
        dead = report.shard(victim)
        assert dead is not None and not dead.alive
        survivor = report.shard("shard-1")
        assert survivor.alive and survivor.exchanges > 0
        # Nothing hung: every exchange reached a terminal outcome.
        assert (report.accepted + report.rejected + report.timed_out
                == report.exchanges)
        assert report.accepted > 0

    def test_monitor_evicts_silent_shard_without_traffic(self):
        async def body():
            cluster = ShardedVerifierCluster(shards=2, heartbeat=0.03)
            await cluster.start()
            try:
                await cluster.kill_shard("shard-1")
                deadline = asyncio.get_running_loop().time() + 2.0
                while ("shard-1" in cluster.ring
                       and asyncio.get_running_loop().time() < deadline):
                    await asyncio.sleep(0.02)
                return (cluster.counters["evictions"],
                        list(cluster.ring.nodes))
            finally:
                await cluster.stop()

        evictions, nodes = run(body())
        assert evictions == 1
        assert nodes == ["shard-0"]

    def test_added_shard_takes_ownership(self):
        async def body():
            cluster = ShardedVerifierCluster(shards=1)
            await cluster.start()
            try:
                await cluster.add_shard("shard-late")
                keys = ["prover-%04d" % n for n in range(64)]
                return cluster.ring.placement(keys)
            finally:
                await cluster.stop()

        placement = run(body())
        assert set(placement.values()) == {"shard-0", "shard-late"}


class TestShardLifecycle:
    def test_shard_refuses_connections_unless_running(self):
        async def body():
            shard = VerifierShard("shard-x")
            with pytest.raises(ClosedTransportError):
                await shard.connect()
            await shard.start()
            transport = await shard.connect()
            await transport.close()
            await shard.kill()
            with pytest.raises(ClosedTransportError):
                await shard.connect()
            await shard.stop()

        run(body())

    def test_killed_shard_fails_ping_but_keeps_its_stats(self):
        bench = build_prover_bench(blinker_firmware(authorized=True),
                                   "asap", "prover-0001")

        async def body():
            shard = VerifierShard("shard-x")
            await shard.start()
            shard.enroll(provision_enrollment(bench))
            assert await shard.ping()
            reply = await shard.control.call(
                {"kind": "attest", "device_id": "prover-0001"})
            assert reply["kind"] == "challenge"
            await shard.kill()
            alive_after_kill = await shard.ping()
            await shard.stop()
            return alive_after_kill, shard.stats()

        alive_after_kill, stats = run(body())
        assert not alive_after_kill
        # Post-mortem: the dead shard's table still holds the challenge
        # it issued, and its counters stay readable.
        assert stats["pending_challenges"] == 1
        assert stats["challenges"] == 1 and stats["enrollments"] == 1

    def test_duplicate_live_shard_name_rejected(self):
        async def body():
            cluster = ShardedVerifierCluster(shards=1)
            await cluster.start()
            try:
                with pytest.raises(ValueError, match="already running"):
                    await cluster.add_shard("shard-0")
                return list(cluster.ring.nodes)
            finally:
                await cluster.stop()

        assert run(body()) == ["shard-0"]

    def test_no_live_shard_left_to_enroll_on(self):
        bench = build_prover_bench(blinker_firmware(authorized=True),
                                   "asap", "prover-0001")

        async def body():
            cluster = ShardedVerifierCluster(shards=1)
            await cluster.start()
            try:
                assert await cluster.evict_shard("shard-0")
                assert not await cluster.evict_shard("shard-0")
                with pytest.raises(RuntimeError, match="no live shards"):
                    cluster.enroll_device(provision_enrollment(bench))
                with pytest.raises(RuntimeError, match="no live shards"):
                    cluster.shard_for("prover-0001")
                return cluster.counters["evictions"]
            finally:
                await cluster.stop()

        assert run(body()) == 1


class TestBackpressure:
    def test_shed_mode_refuses_overload_visibly(self):
        fleet = ClusterFleet(6, shards=1, architecture="asap",
                             max_inflight=1, backpressure="shed")
        report = fleet.run(exchanges_per_device=2, mix=("ra",))
        # Six concurrent devices against a one-slot gate: most attempts
        # shed, every admitted exchange accepted, and the shedding is
        # visible in both the report and the shard stats.
        assert report.shed > 0
        assert report.exchanges + report.shed == 12
        assert report.accepted == report.exchanges
        assert sum(stats.shed for stats in report.shards) == report.shed

    def test_delay_mode_completes_everything(self):
        fleet = ClusterFleet(6, shards=1, architecture="asap",
                             max_inflight=2, backpressure="delay")
        report = fleet.run(exchanges_per_device=2, mix=("ra",))
        assert report.exchanges == 12
        assert report.all_accepted()
        assert report.shed == 0
        assert report.delayed > 0  # the queueing was visible


class TestEnrollmentGating:
    def test_every_service_answers_wire_enrollment_with_an_error(self):
        async def body():
            service = VerifierService()
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            await client.send({"kind": "enroll", "seq": 0,
                               "enrollment": None})
            reply = await client.recv()
            await client.close()
            await serve
            return reply

        reply = run(body())
        assert reply["kind"] == "error"
        assert "enroll" in reply["reason"]
