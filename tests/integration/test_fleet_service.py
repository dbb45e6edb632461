"""Integration tests for the fleet attestation service.

The acceptance bar for the service layer: many provers multiplex RA
and PoX exchanges through one asyncio :class:`VerifierService` over a
loopback transport, every failure path lands on the intended
rejection reason, and the (fixed) issued-challenge table is empty once
the traffic drains -- under load, after rejections, and after
abandoned challenges age out.
"""

import asyncio

import pytest

from repro.firmware.blinker import blinker_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.net import (
    ClosedTransportError,
    Fleet,
    ProverEndpoint,
    VerifierService,
    build_prover_bench,
    loopback_pair,
)
from repro.vrased.protocol import Verifier
from repro.vrased.swatt import AttestationReport


def run(coroutine):
    return asyncio.run(coroutine)


def make_prover(service, device_id="prover-0001", architecture="asap"):
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
    client, server_side = loopback_pair()
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


    def test_a_reply_to_a_closed_connection_is_dropped(self):
        async def body():
            service = VerifierService()
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            await client.send({"kind": "stats", "seq": 0})
            await client.close()  # gone before the reply is sent
            await serve  # ends cleanly: the reply is dropped, not raised
            return service

        service = run(body())
        assert service.counters["errors"] == 0

    def test_serve_returns_when_its_own_endpoint_closes(self):
        # Closing the service's side ends its serve loop by itself: no
        # cancel, and the prover's side still open.
        async def body():
            service = VerifierService()
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            await client.send({"kind": "stats", "seq": 0})
            assert (await client.recv())["kind"] == "stats"
            await server_side.close()
            await asyncio.wait_for(serve, timeout=1.0)
            return serve

        serve = run(body())
        assert not serve.cancelled() and serve.result() is None

    @pytest.mark.parametrize("kind", ["ra", "pox"])
    def test_an_exchange_with_a_closed_service_raises_instead_of_hanging(
            self, kind):
        # The link loses nothing, so an exchange has no deadline: one
        # whose service side went away ends with the close.
        async def body():
            service = VerifierService()
            bench, prover, server_side = make_prover(service)
            await server_side.close()
            exchange = (prover.run_attestation() if kind == "ra"
                        else prover.run_pox())
            with pytest.raises(ClosedTransportError):
                await asyncio.wait_for(exchange, timeout=1.0)
            await prover.close()
            return service, bench

        service, bench = run(body())
        assert service.counters["challenges"] == 0
        assert not bench.exec_flag  # the ER never ran

    def test_a_prover_counts_no_retransmits(self):
        # ``perfbench`` sums ``retransmits`` over its provers; a
        # lossless link never resends a request.
        async def body():
            service = VerifierService()
            _bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            results = [await prover.run_attestation(), await prover.run_pox()]
            await prover.close()
            await serve
            return service, prover, results

        service, prover, results = run(body())
        assert all(result.accepted for result in results)
        assert prover.retransmits == 0
        assert service.counters["challenges"] == 2
        assert service.counters["duplicates"] == 0


class TestMessageKinds:
    """``handle`` is pure: each wire kind checked without a transport."""

    def test_stats_reply_carries_the_service_counters(self):
        service = VerifierService()
        reply = service.handle({"kind": "stats", "seq": 3})
        assert reply == {"kind": "stats", "seq": 3, "pending_challenges": 0,
                         "challenges": 0, "accepted": 0, "rejected": 0,
                         "errors": 0, "duplicates": 0}

    @pytest.mark.parametrize("message, missing", [
        ({"kind": "attest", "seq": 1}, "device_id"),
        ({"kind": "report", "seq": 1, "protocol": "ra"}, "report"),
    ], ids=["attest", "report"])
    def test_a_request_missing_its_field_gets_error_reply(self, message,
                                                          missing):
        service = VerifierService()
        reply = service.handle(message)
        assert reply["kind"] == "error" and reply["seq"] == 1
        assert missing in reply["reason"]
        assert service.counters["errors"] == 1
        assert service.counters["challenges"] == 0
        assert service.pending_challenges == 0

    @pytest.mark.parametrize("kind", ["frobnicate", "ping"])
    def test_unknown_kind_gets_error_reply(self, kind):
        # No kind answers a liveness probe: ``ping`` is unknown too.
        service = VerifierService()
        reply = service.handle({"kind": kind, "seq": 4})
        assert reply["kind"] == "error" and reply["seq"] == 4
        assert kind in reply["reason"]
        assert service.counters["errors"] == 1

    def test_unknown_report_protocol_gets_error_reply(self):
        service = VerifierService()
        reply = service.handle({"kind": "report", "seq": 2,
                                "protocol": "tpm", "report": None})
        assert reply["kind"] == "error"
        assert "tpm" in reply["reason"]
        assert service.counters["errors"] == 1
        assert service.counters["accepted"] == service.counters["rejected"] == 0

    def test_enroll_message_provisions_nothing(self):
        # Enrollment carries a device's master key, so it is never a
        # wire message: the service answers with an error and the
        # device stays unknown to its verifier.
        bench = build_prover_bench(blinker_firmware(authorized=True),
                                   "asap", "prover-0001")
        service = VerifierService()
        reply = service.handle({
            "kind": "enroll", "seq": 0, "device_id": "prover-0001",
            "master_key": bench.protocol.device_key.master_key})
        assert reply["kind"] == "error"
        attest = service.handle({"kind": "attest", "seq": 1,
                                 "device_id": "prover-0001"})
        assert attest["kind"] == "error"
        assert service.pending_challenges == 0


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


class TestReplyCache:
    """A prover may send a report twice under one ``seq``: the service
    verifies it once and replays the verdict."""

    def send_twice(self, first_report, second_report):
        async def body():
            service = VerifierService()
            bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            challenge, failure = await prover._request_challenge()
            assert failure is None
            good = prover.swatt.measure(
                bench.device.memory, challenge, prover.attested_regions)
            verdicts = []
            for report in (first_report(good), second_report(good)):
                await prover.transport.send({
                    "kind": "report", "seq": 7, "protocol": "ra",
                    "report": report})
                verdicts.append(await asyncio.wait_for(
                    prover.transport.recv(), timeout=1.0))
            await prover.close()
            await serve
            return service, verdicts

        return run(body())

    def test_a_repeated_report_is_verified_once(self):
        service, (first, second) = self.send_twice(
            lambda good: good, lambda good: good)
        assert first["kind"] == "verdict" and first["accepted"]
        # Executed again, it would be "unknown or stale challenge".
        assert second == first
        assert service.counters["accepted"] == 1
        assert service.counters["rejected"] == 0
        assert service.counters["duplicates"] == 1
        assert service.pending_challenges == 0

    def test_a_repeated_seq_cannot_flip_a_rejection(self):
        def forged(good):
            return AttestationReport(device_id=good.device_id,
                                     challenge=good.challenge,
                                     measurement=b"\x00" * 32)

        service, (first, second) = self.send_twice(forged, lambda good: good)
        assert not first["accepted"]
        assert first["reason"] == "measurement mismatch"
        assert second == first
        assert service.counters["accepted"] == 0
        assert service.counters["rejected"] == 1
        assert service.counters["duplicates"] == 1


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

    def test_a_pox_run_cut_off_inside_er_is_rejected(self):
        # Five of the blinker's 128 ER steps: the report measures EXEC = 0.
        report = Fleet(1).run(exchanges_per_device=2, max_steps=5)
        verdicts = [(result.kind, result.accepted) for result in report.results]
        assert verdicts == [("ra", True), ("asap", False)]
        assert report.results[1].reason.startswith("EXEC = 0: ")

    def test_fleet_ra_only_mix(self):
        fleet = Fleet(2)
        report = fleet.run(exchanges_per_device=3, mix=("ra",))
        assert report.per_kind == {"ra": 6}
        assert report.all_accepted()

    def test_invalid_fleet_parameters_rejected(self):
        with pytest.raises(ValueError, match="size"):
            Fleet(0)
        with pytest.raises(ValueError, match="shards"):
            Fleet(2, shards=0)

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

    def test_a_fleet_run_ends_its_serve_loops_without_cancelling(self):
        fleet = Fleet(3, shards=2)

        async def body():
            report = await fleet.run_async(exchanges_per_device=2)
            # Nothing of the run is left on the loop.
            return report, asyncio.all_tasks() - {asyncio.current_task()}

        report, leftover = run(body())
        assert report.all_accepted()
        assert leftover == set()
        tasks = [task for task, _ in fleet._serve_tasks]
        assert len(tasks) == 3
        assert all(task.done() and not task.cancelled() for task in tasks)

    def test_report_results_list_each_provers_exchanges_in_turn(self):
        report = Fleet(2).run(exchanges_per_device=3, mix=("ra", "pox"))
        assert report.all_accepted()
        # Prover 0's three exchanges, then prover 1's, each in mix order.
        assert [result.kind for result in report.results] == \
            ["ra", "asap", "ra"] * 2


class TestAbandonedExchanges:
    def test_abandoned_challenge_ages_out_of_table(self):
        # A prover that gets its challenge and goes away before
        # reporting leaves the challenge behind; the TTL prunes it, so
        # abandoned exchanges cannot grow the table.
        now = [0.0]

        async def body():
            verifier = Verifier(challenge_ttl=5.0, clock=lambda: now[0])
            service = VerifierService(verifier)
            _bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            challenge, failure = await prover._request_challenge()
            assert failure is None and challenge
            await prover.close()
            await serve
            return service

        service = run(body())
        assert service.counters["challenges"] == 1
        now[0] = 4.0
        assert service.pending_challenges == 1
        now[0] = 6.0
        assert service.pending_challenges == 0

    def test_a_report_after_the_ttl_is_rejected_as_stale(self):
        now = [0.0]

        async def body():
            verifier = Verifier(challenge_ttl=5.0, clock=lambda: now[0])
            service = VerifierService(verifier)
            bench, prover, server_side = make_prover(service)
            serve = asyncio.ensure_future(service.serve(server_side))
            challenge, failure = await prover._request_challenge()
            assert failure is None
            report = prover.swatt.measure(
                bench.device.memory, challenge, prover.attested_regions)
            now[0] = 6.0
            verdict = await prover._submit("ra", report)
            await prover.close()
            await serve
            return service, verdict

        service, verdict = run(body())
        assert not verdict.accepted
        assert verdict.reason == "unknown or stale challenge"
        assert service.counters["rejected"] == 1
        assert service.pending_challenges == 0

    def test_abandoned_challenges_drain_while_other_provers_complete(self):
        now = [0.0]

        async def body():
            verifier = Verifier(challenge_ttl=5.0, clock=lambda: now[0])
            service = VerifierService(verifier)
            serves, provers = [], []
            for index in range(4):
                _bench, prover, server_side = make_prover(
                    service, device_id="prover-%04d" % index)
                serves.append(asyncio.ensure_future(service.serve(server_side)))
                provers.append(prover)
            *leaving, staying = provers
            for prover in leaving:
                challenge, failure = await prover._request_challenge()
                assert failure is None and challenge
                await prover.close()
            results = [await staying.run_attestation(),
                       await staying.run_pox()]
            await staying.close()
            await asyncio.gather(*serves)
            return service, results

        service, results = run(body())
        assert all(result.accepted for result in results)
        assert service.counters["challenges"] == 5
        # The three abandoned challenges stay until the TTL passes.
        assert service.pending_challenges == 3
        now[0] = 6.0
        assert service.pending_challenges == 0
