"""Integration tests for a fleet split between several verifier services.

The acceptance bars pinned here:

* ``Fleet(N, shards=k)`` provisions device *i* into service ``i % k``
  and connects it to that same service: each service holds only its
  own devices' keys, issues challenges only for them, and drains its
  challenge table;
* splitting a fleet changes no exchange's verdict;
* no service accepts enrollment over the wire: an ``enroll`` message
  gets an error reply, because enrollment hands out device keys and
  devices are provisioned in-process.
"""

import asyncio

import pytest

from repro.net import (
    Fleet,
    ProverEndpoint,
    VerifierService,
    loopback_pair,
)
from repro.obs import MetricsRegistry, use_registry


def run(coroutine):
    return asyncio.run(coroutine)


class TestShardedFleet:
    def test_two_shard_fleet_routes_and_accepts(self):
        fleet = Fleet(8, shards=2, architecture="asap")
        with use_registry(MetricsRegistry(collect=False)) as registry:
            report = fleet.run(exchanges_per_device=2, mix=("ra", "pox"))
            gauges = registry.snapshot()["gauges"]
        assert report.exchanges == 16
        assert report.all_accepted()
        assert report.shard_count == 2
        # Both services saw traffic: four devices each.
        assert [service.counters["challenges"]
                for service in fleet.services] == [8, 8]
        for key, total in report.service_counters.items():
            assert total == sum(service.counters[key]
                                for service in fleet.services)
        assert report.service_counters["challenges"] == 16
        # Challenge tables drained on every service.
        assert [service.pending_challenges
                for service in fleet.services] == [0, 0]
        assert gauges["fleet.shard_count"] == 2
        assert gauges["fleet.exchanges"] == 16
        assert gauges["fleet.accepted"] == 16
        assert gauges["fleet.pending_challenges_after"] == 0

    @pytest.mark.parametrize("shards, architecture", [
        (1, "asap"), (2, "asap"), (3, "asap"), (7, "asap"), (2, "apex"),
    ])
    def test_device_i_lives_on_service_i_mod_shards(self, shards,
                                                    architecture):
        # Seven services for six devices leave the last one idle.
        fleet = Fleet(6, shards=shards, architecture=architecture)
        report = fleet.run(exchanges_per_device=2)
        assert report.all_accepted(), \
            [r.reason for r in report.results if not r.accepted]
        assert report.per_kind == {"ra": 6, architecture: 6}
        assert report.shard_count == len(fleet.services) == shards
        devices = ["prover-%04d" % index for index in range(6)]
        for number, service in enumerate(fleet.services):
            own = devices[number::shards]
            # Only its own devices' keys: a service cannot issue a
            # challenge for a device it holds no key for (that request
            # is an error), so every challenge it issued was for one of
            # them, two exchanges per device.
            assert sorted(service.verifier.key_store.device_ids()) == own
            assert service.counters["challenges"] == 2 * len(own)
            assert service.counters["accepted"] == 2 * len(own)
            assert service.counters["errors"] == 0
            assert service.pending_challenges == 0
        assert report.pending_challenges_after == 0

    def test_a_second_run_reuses_the_devices_and_drains_again(self):
        fleet = Fleet(4, shards=2, architecture="asap")
        first = fleet.run(exchanges_per_device=2)
        benches = list(fleet.benches)
        second = fleet.run(exchanges_per_device=2)
        assert first.all_accepted() and second.all_accepted()
        assert fleet.benches == benches
        # The services live as long as the fleet; each report counts
        # its own run's challenges, and the tables drained after each.
        assert first.service_counters["challenges"] == first.exchanges == 8
        assert second.service_counters["challenges"] == second.exchanges == 8
        assert sum(service.counters["challenges"] for service in fleet.services) == 16
        assert second.pending_challenges_after == 0

    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharding_leaves_each_links_outcomes_alone(self, shards):
        # A device's exchanges depend on its own link and firmware run,
        # not on which service is at the other end: splitting the fleet
        # changes no verdict.  PoX runs cut off inside ER give each
        # device a rejection next to its accepted RA exchanges.
        def outcomes(shard_count):
            fleet = Fleet(4, shards=shard_count, architecture="asap")
            report = fleet.run(exchanges_per_device=3, max_steps=5)
            return [(result.kind, result.accepted, result.reason)
                    for result in report.results]

        one_service = outcomes(1)
        assert {accepted for _, accepted, _ in one_service} == {True, False}
        assert outcomes(shards) == one_service

    @pytest.mark.parametrize("kind", ["ra", "pox"])
    def test_a_device_cannot_attest_to_another_service(self, kind):
        # Services share no keys: device 0 lives on service 0, so
        # service 1 refuses to issue it a challenge.
        fleet = Fleet(2, shards=2, architecture="asap")
        assert fleet.run(exchanges_per_device=1).all_accepted()
        bench, other = fleet.benches[0], fleet.services[1]

        async def body():
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(other.serve(server_side))
            prover = ProverEndpoint(
                bench.config.device_id, bench.device,
                bench.protocol.device_key, client, protocol=bench.protocol)
            if kind == "ra":
                result = await prover.run_attestation()
            else:
                result = await prover.run_pox()
            await prover.close()
            await serve
            return result

        result = run(body())
        assert not result.accepted
        assert "prover-0000" in result.reason
        assert other.counters["errors"] == 1
        assert other.counters["challenges"] == 1  # device 1's, from the run
        assert other.pending_challenges == 0


    def test_a_challenge_from_one_service_is_stale_at_another(self):
        # Each service has its own challenge table: a report answering
        # service 0's challenge is refused by service 1, even for a
        # device both services knew.
        fleet = Fleet(1, shards=2, architecture="asap")
        assert fleet.run(exchanges_per_device=1, mix=("ra",)).all_accepted()
        bench = fleet.benches[0]
        home, other = fleet.services
        program = bench.device.layout.program
        other.verifier.key_store.provision(
            bench.config.device_id, bench.protocol.device_key.master_key)
        other.verifier.set_reference(bench.config.device_id, [
            (program, bench.device.memory.dump_region(program))])

        async def body():
            provers, serves = [], []
            for service in (home, other):
                client, server_side = loopback_pair()
                serves.append(asyncio.ensure_future(service.serve(server_side)))
                provers.append(ProverEndpoint(
                    bench.config.device_id, bench.device,
                    bench.protocol.device_key, client,
                    protocol=bench.protocol))
            at_home, elsewhere = provers
            challenge, failure = await at_home._request_challenge()
            assert failure is None
            report = at_home.swatt.measure(bench.device.memory, challenge,
                                           at_home.attested_regions)
            verdict = await elsewhere._submit("ra", report)
            for prover in provers:
                await prover.close()
            await asyncio.gather(*serves)
            return verdict

        verdict = run(body())
        assert not verdict.accepted
        assert "challenge" in verdict.reason
        assert other.counters["rejected"] == 1
        # The challenge is still outstanding at home, until its TTL.
        assert home.pending_challenges == 1


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
