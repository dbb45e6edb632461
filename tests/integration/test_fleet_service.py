"""Integration tests for the fleet attestation service.

The acceptance bar for the service layer: many provers multiplex RA
and PoX exchanges through one asyncio :class:`VerifierService` over a
pluggable transport, every failure path lands on the intended
rejection reason, and the (fixed) issued-challenge table is empty once
the traffic drains -- under load, after rejections, and after
timeouts age out.
"""

import asyncio

import pytest

from repro.firmware.blinker import blinker_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.net import (
    Fleet,
    LinkConditions,
    ProverEndpoint,
    VerifierService,
    loopback_pair,
)
from repro.vrased.swatt import AttestationReport


def run(coroutine):
    return asyncio.run(coroutine)


def make_prover(service, device_id="prover-0001", architecture="asap",
                conditions=None):
    """One provisioned testbench device connected over loopback."""
    shared = service.asap if architecture == "asap" else service.apex
    bench = PoxTestbench(
        blinker_firmware(authorized=True),
        TestbenchConfig(architecture=architecture, device_id=device_id),
        pox_verifier=shared,
    )
    service.verifier.set_reference(device_id, [
        (bench.device.layout.program,
         bench.device.memory.dump_region(bench.device.layout.program)),
    ])
    client, server_side = loopback_pair(conditions)
    prover = ProverEndpoint(device_id, bench.device, bench.protocol.device_key,
                            client, protocol=bench.protocol)
    return bench, prover, server_side


class TestVerifierService:
    def test_ra_exchange_accepted(self):
        async def body():
            service = VerifierService()
            _bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            result = await prover.run_attestation()
            await prover.close()
            await serve
            return service, result

        service, result = run(body())
        assert result.accepted, result.reason
        assert result.kind == "ra"
        assert service.pending_challenges == 0

    def test_pox_exchanges_both_architectures(self):
        async def body(architecture):
            service = VerifierService()
            _bench, prover, server_side = make_prover(
                service, architecture=architecture)
            serve = asyncio.ensure_future(service.serve(server_side))
            result = await prover.run_pox()
            await prover.close()
            await serve
            return service, result

        for architecture in ("asap", "apex"):
            service, result = run(body(architecture))
            assert result.accepted, result.reason
            assert result.kind == architecture
            assert service.pending_challenges == 0

    def test_unknown_device_gets_error_reply(self):
        async def body():
            service = VerifierService()
            _bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            prover.device_id = "never-enrolled"
            result = await prover.run_attestation()
            await prover.close()
            await serve
            return service, result

        service, result = run(body())
        assert not result.accepted
        assert service.counters["errors"] == 1
        assert service.pending_challenges == 0

    def test_stats_message(self):
        async def body():
            service = VerifierService()
            _bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            await prover.run_attestation()
            stats = await prover.stats()
            await prover.close()
            await serve
            return stats

        stats = run(body())
        assert stats["kind"] == "stats"
        assert stats["accepted"] == 1 and stats["challenges"] == 1
        assert stats["pending_challenges"] == 0


class TestProtocolFailurePaths:
    """Every adversarial shape must hit its intended rejection reason --
    and burn the challenge it tried to use."""

    def run_with_tamper(self, tamper, architecture="asap"):
        """One RA exchange whose report is doctored by *tamper*."""

        async def body():
            service = VerifierService()
            bench, prover, server_side = make_prover(
                service, architecture=architecture)
            serve = asyncio.ensure_future(service.serve(server_side))

            challenge, failure = await prover._request_challenge()
            assert failure is None
            report = prover.swatt.measure(
                bench.device.memory, challenge, prover.attested_regions)
            report = tamper(report, bench, prover)
            verdict = await prover._submit("ra", report)
            await prover.close()
            await serve
            return service, verdict

        return run(body())

    def test_wrong_device_report_rejected(self):
        def impersonate(report, _bench, _prover):
            return AttestationReport(
                device_id="prover-9999", challenge=report.challenge,
                measurement=report.measurement)

        service, verdict = self.run_with_tamper(impersonate)
        assert not verdict.accepted
        assert "different device" in verdict.reason
        assert service.pending_challenges == 0  # burned, not leaked

    def test_tampered_measurement_rejected(self):
        def flip_bits(report, _bench, _prover):
            doctored = bytes(byte ^ 0xFF for byte in report.measurement)
            return AttestationReport(
                device_id=report.device_id, challenge=report.challenge,
                measurement=doctored)

        service, verdict = self.run_with_tamper(flip_bits)
        assert not verdict.accepted
        assert verdict.reason == "measurement mismatch"
        assert service.pending_challenges == 0

    def test_tampered_auth_token_never_reaches_swatt(self):
        async def body():
            service = VerifierService()
            _bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            # A MitM garbles the request token in flight: the prover
            # must refuse to run SW-Att for an unauthenticated request.
            original = prover.transport.recv

            async def garble():
                reply = await original()
                if reply.get("kind") == "challenge":
                    reply = dict(reply, auth_token=b"\x00" * 32)
                return reply

            prover.transport.recv = garble
            result = await prover.run_attestation()
            await prover.close()
            await serve
            return service, result

        service, result = run(body())
        assert not result.accepted
        assert "authentication" in result.reason
        assert service.counters["accepted"] == 0
        assert service.counters["rejected"] == 0  # no report was ever sent

    def test_duplicate_report_for_one_challenge_rejected(self):
        async def body():
            service = VerifierService()
            bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            challenge, failure = await prover._request_challenge()
            assert failure is None
            report = prover.swatt.measure(
                bench.device.memory, challenge, prover.attested_regions)
            first = await prover._submit("ra", report)
            second = await prover._submit("ra", report)
            await prover.close()
            await serve
            return first, second

        first, second = run(body())
        assert first.accepted
        assert not second.accepted
        assert "challenge" in second.reason

    def test_rejected_then_corrected_report_cannot_reuse_challenge(self):
        async def body():
            service = VerifierService()
            bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            challenge, failure = await prover._request_challenge()
            assert failure is None
            good = prover.swatt.measure(
                bench.device.memory, challenge, prover.attested_regions)
            bad = AttestationReport(device_id=good.device_id,
                                    challenge=good.challenge,
                                    measurement=b"\x00" * 32)
            rejected = await prover._submit("ra", bad)
            retried = await prover._submit("ra", good)
            await prover.close()
            await serve
            return rejected, retried

        rejected, retried = run(body())
        assert not rejected.accepted and rejected.reason == "measurement mismatch"
        # The failed attempt consumed the challenge: even the honest
        # report is now stale.  Before the verifier fix this replay
        # window accepted the retry.
        assert not retried.accepted
        assert "challenge" in retried.reason


class TestConcurrentExchanges:
    def test_many_provers_interleave_through_one_service(self):
        async def body():
            service = VerifierService()
            serves, provers = [], []
            for index in range(8):
                _bench, prover, server_side = make_prover(
                    service, device_id="prover-%04d" % index)
                serves.append(asyncio.ensure_future(service.serve(server_side)))
                provers.append(prover)
            results = await asyncio.gather(*[
                prover.run_attestation() for prover in provers
            ])
            for prover in provers:
                await prover.close()
            await asyncio.gather(*serves)
            return service, results

        service, results = run(body())
        assert all(result.accepted for result in results)
        assert service.counters["accepted"] == 8
        assert service.pending_challenges == 0

    def test_fleet_mixed_traffic_loopback(self):
        fleet = Fleet(6, architecture="asap")
        report = fleet.run(exchanges_per_device=4)
        assert report.exchanges == 24
        assert report.all_accepted(), \
            [r.reason for r in report.results if not r.accepted]
        assert report.per_kind["ra"] == 12 and report.per_kind["asap"] == 12
        assert report.pending_challenges_after == 0
        assert report.service_counters["accepted"] == 24

    def test_fleet_provers_record_no_trace(self):
        fleet = Fleet(2, architecture="asap")
        report = fleet.run(exchanges_per_device=2)
        assert report.all_accepted()
        for bench in fleet.benches:
            assert len(bench.device.trace) == 0
            assert bench.device.trace.total_cycles == bench.device.total_cycles > 0

    def test_fleet_over_tcp_socket_pairs(self):
        fleet = Fleet(3, architecture="apex", transport="tcp")
        report = fleet.run(exchanges_per_device=2)
        assert report.exchanges == 6 and report.all_accepted()
        assert report.pending_challenges_after == 0

    def test_fleet_ra_only_mix(self):
        fleet = Fleet(2)
        report = fleet.run(exchanges_per_device=3, mix=("ra",))
        assert report.per_kind == {"ra": 6}
        assert report.all_accepted()

    def test_invalid_fleet_parameters_rejected(self):
        with pytest.raises(ValueError, match="size"):
            Fleet(0)
        with pytest.raises(ValueError, match="transport"):
            Fleet(1, transport="carrier-pigeon")

    def test_lossy_conditions_without_deadline_rejected(self):
        # No retry layer exists, so a lossy link with no per-exchange
        # deadline would hang run() on the first dropped message.
        with pytest.raises(ValueError, match="deadline"):
            Fleet(2, conditions=LinkConditions(loss=0.5))
        with pytest.raises(ValueError, match="deadline"):
            Fleet(2, conditions=LinkConditions(reorder=0.5))
        Fleet(2, conditions=LinkConditions(delay=0.001))  # delay-only is safe

    def test_concurrent_exchanges_on_one_endpoint_serialise(self):
        # Two exchanges launched concurrently on a single endpoint must
        # both complete: the RPC lock keeps one round trip in flight,
        # so the tasks cannot consume each other's replies and hang.
        async def body():
            service = VerifierService()
            _bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            results = await asyncio.wait_for(
                asyncio.gather(prover.run_attestation(),
                               prover.run_attestation()),
                timeout=10.0,
            )
            await prover.close()
            await serve
            return service, results

        service, results = run(body())
        assert all(result.accepted for result in results)
        assert service.pending_challenges == 0


class TestDeadlinesAndImpairedLinks:
    def test_deadline_times_out_on_slow_link(self):
        async def body():
            service = VerifierService()
            _bench, prover, server_side = make_prover(
                service, conditions=LinkConditions(delay=0.2))
            serve = asyncio.ensure_future(service.serve(server_side))
            result = await prover.run_attestation(deadline=0.02)
            await prover.close()
            await serve
            return service, result

        service, result = run(body())
        assert result.timed_out and not result.accepted
        assert "deadline" in result.reason

    def test_abandoned_challenge_ages_out_of_table(self):
        # A timed-out exchange leaves its challenge behind; the TTL
        # prunes it, so even all-loss traffic cannot grow the table.
        import itertools

        clock = itertools.count()

        async def body():
            from repro.vrased.protocol import Verifier

            verifier = Verifier(challenge_ttl=5.0, clock=lambda: next(clock))
            service = VerifierService(verifier)
            _bench, prover, server_side = make_prover(
                service, conditions=LinkConditions(loss=1.0))
            serve = asyncio.ensure_future(service.serve(server_side))
            result = await prover.run_attestation(deadline=0.02)
            pending_right_after = service.pending_challenges
            await prover.close()
            await serve
            return service, result, pending_right_after

        service, result, pending_right_after = run(body())
        assert result.timed_out
        # The request itself was lost on the wire, so no challenge was
        # ever issued -- or it was issued and the reply was lost; either
        # way the table drains to zero once the TTL clock advances.
        assert service.pending_challenges == 0
        assert pending_right_after <= 1

    def test_lossy_fleet_converges_with_timeouts_not_hangs(self):
        fleet = Fleet(3, conditions=LinkConditions(loss=0.4, seed=3),
                      deadline=0.05)
        report = fleet.run(exchanges_per_device=3, mix=("ra",))
        assert report.exchanges == 9
        assert report.timed_out > 0  # the loss actually bit
        assert report.accepted + report.rejected + report.timed_out == 9
