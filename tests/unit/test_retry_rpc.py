"""Unit tests for the retry/RPC layer (`repro.net.rpc`).

The contract under test: a :class:`RetryPolicy` is a bounded TCP-RTO
style schedule (the growing per-attempt reply timeout *is* the
backoff), :class:`RpcChannel` retransmits the *same* ``seq`` so the
service's reply cache can dedup, and the service answers a retransmit
of a completed request from the cache -- never by executing it twice.
"""

import asyncio

import pytest

from repro.net import VerifierService, loopback_pair
from repro.net.service import REPLY_CACHE_SIZE
from repro.net.rpc import RetryPolicy, RpcChannel, RpcTimeout


def run(coroutine):
    return asyncio.run(coroutine)


class TestRetryPolicy:
    def test_defaults_are_bounded(self):
        policy = RetryPolicy()
        assert policy.bounded
        assert policy.worst_case_seconds() > 0

    def test_attempt_timeouts_grow_then_cap(self):
        policy = RetryPolicy(max_attempts=5, base_timeout=0.1,
                             multiplier=2.0, max_timeout=0.5)
        assert list(policy.attempt_timeouts()) == \
            pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])
        assert policy.worst_case_seconds() == pytest.approx(1.7)

    def test_unlimited_schedule(self):
        policy = RetryPolicy(max_attempts=None)
        assert not policy.bounded
        assert policy.worst_case_seconds() is None
        timeouts = policy.attempt_timeouts()
        # The generator keeps yielding (spot-check well past any bound).
        for _ in range(100):
            next(timeouts)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base_timeout"):
            RetryPolicy(base_timeout=0.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="max_timeout"):
            RetryPolicy(base_timeout=1.0, max_timeout=0.5)


def echo_server(transport, drop=0):
    """Reply ``pong`` to every ping, silently dropping the first *drop*
    requests (the flaky-link stand-in)."""

    async def serve():
        seen = 0
        while True:
            message = await transport.recv()
            seen += 1
            if seen <= drop:
                continue
            await transport.send({"kind": "pong", "seq": message["seq"],
                                  "echo": message.get("payload")})

    return asyncio.ensure_future(serve())


class TestRpcChannel:
    def test_plain_call_round_trips(self):
        async def body():
            client, server_side = loopback_pair()
            server = echo_server(server_side)
            channel = RpcChannel(client)
            reply = await channel.call({"kind": "ping", "payload": 7})
            server.cancel()
            await channel.close()
            return reply, channel

        reply, channel = run(body())
        assert reply["kind"] == "pong" and reply["echo"] == 7
        assert channel.retransmits == 0

    def test_sequence_numbers_increment(self):
        async def body():
            client, server_side = loopback_pair()
            server = echo_server(server_side)
            channel = RpcChannel(client)
            first = await channel.call({"kind": "ping"})
            second = await channel.call({"kind": "ping"})
            server.cancel()
            await channel.close()
            return first["seq"], second["seq"]

        first, second = run(body())
        assert second == first + 1

    def test_retransmit_recovers_a_dropped_request(self):
        async def body():
            client, server_side = loopback_pair()
            server = echo_server(server_side, drop=2)
            channel = RpcChannel(client, retry=RetryPolicy(
                max_attempts=5, base_timeout=0.02))
            reply = await channel.call({"kind": "ping"})
            server.cancel()
            await channel.close()
            return reply, channel

        reply, channel = run(body())
        assert reply["kind"] == "pong"
        assert channel.retransmits == 2  # two drops, two retransmits

    def test_exhausted_schedule_raises_rpc_timeout(self):
        async def body():
            client, server_side = loopback_pair()
            server = echo_server(server_side, drop=10 ** 6)  # black hole
            channel = RpcChannel(client, retry=RetryPolicy(
                max_attempts=3, base_timeout=0.01))
            with pytest.raises(RpcTimeout, match="3 attempts"):
                await channel.call({"kind": "ping"})
            server.cancel()
            await channel.close()
            return channel

        channel = run(body())
        assert channel.retransmits == 2  # 3 attempts = 2 retransmits

    def test_per_call_policy_overrides_channel_policy(self):
        async def body():
            client, server_side = loopback_pair()
            server = echo_server(server_side, drop=10 ** 6)
            channel = RpcChannel(client)  # no channel-level retry
            with pytest.raises(RpcTimeout):
                await channel.call({"kind": "ping"},
                                   retry=RetryPolicy(max_attempts=2,
                                                     base_timeout=0.01))
            server.cancel()
            await channel.close()

        run(body())

    def test_straggler_replies_are_dropped(self):
        async def body():
            client, server_side = loopback_pair()

            async def lagging_server():
                # Answer the *previous* request each time: the reply to
                # call N arrives while call N+1 is waiting.
                backlog = []
                while True:
                    message = await server_side.recv()
                    backlog.append(message["seq"])
                    if len(backlog) >= 2:
                        stale = backlog.pop(0)
                        await server_side.send({"kind": "pong", "seq": stale})
                        await server_side.send(
                            {"kind": "pong", "seq": backlog[0]})

            server = asyncio.ensure_future(lagging_server())
            channel = RpcChannel(client, retry=RetryPolicy(
                max_attempts=4, base_timeout=0.05))
            first = await channel.call({"kind": "ping"})
            second = await channel.call({"kind": "ping"})
            server.cancel()
            await channel.close()
            return first, second

        first, second = run(body())
        # Each call got the reply bearing *its* seq, stale ones dropped.
        assert (first["seq"], second["seq"]) == (0, 1)


class TestServiceDedup:
    """Retransmits against the real service: at-most-once execution."""

    def test_retransmit_of_completed_request_replays_cached_reply(self):
        async def body():
            service = VerifierService()
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            await client.send({"kind": "stats", "seq": 41})
            first = await client.recv()
            await client.send({"kind": "stats", "seq": 41})  # retransmit
            second = await client.recv()
            await client.close()
            await serve
            return service, first, second

        service, first, second = run(body())
        assert first["kind"] == second["kind"] == "stats"
        assert first["seq"] == second["seq"] == 41
        # The original reply, replayed: a second execution would have
        # reported the duplicate counted just before it.
        assert second == first and first["duplicates"] == 0
        assert service.counters["duplicates"] == 1

    def test_distinct_seqs_are_distinct_requests(self):
        async def body():
            service = VerifierService()
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            await client.send({"kind": "stats", "seq": 1})
            await client.recv()
            await client.send({"kind": "stats", "seq": 2})
            await client.recv()
            await client.close()
            await serve
            return service

        service = run(body())
        assert service.counters["duplicates"] == 0

    def test_requests_without_a_seq_are_never_deduplicated(self):
        async def body():
            service = VerifierService()
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            replies = []
            for _ in range(2):
                await client.send({"kind": "stats"})
                replies.append(await client.recv())
            await client.close()
            await serve
            return service, replies

        service, replies = run(body())
        assert [reply["seq"] for reply in replies] == [None, None]
        assert service.counters["duplicates"] == 0

    def test_a_retransmit_queued_behind_its_original_runs_once(self):
        async def body():
            service = VerifierService()
            service.verifier.enroll("prover")
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            # All three are queued before the service runs: the service
            # answers seq 5 before it reads the retransmit.
            attest = {"kind": "attest", "seq": 5, "device_id": "prover"}
            await client.send(attest)
            await client.send(attest)
            await client.send({"kind": "stats", "seq": 6})
            replies = [await asyncio.wait_for(client.recv(), timeout=1.0)
                       for _ in range(3)]
            await client.close()
            await serve
            return service, replies

        service, (first, second, stats) = run(body())
        # One challenge issued, and the retransmit answered from the
        # cache with the same one.
        assert first["kind"] == "challenge" and first["seq"] == 5
        assert second == first
        assert stats["seq"] == 6 and stats["challenges"] == 1
        assert service.counters["challenges"] == 1
        assert service.counters["duplicates"] == 1
        assert service.pending_challenges == 1

    def test_reply_cache_forgets_the_oldest_seq_past_its_bound(self):
        async def body():
            service = VerifierService()
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            for seq in range(REPLY_CACHE_SIZE + 1):
                await client.send({"kind": "stats", "seq": seq})
                await client.recv()
            # seq 0 fell out of the cache: executed again, no duplicate.
            await client.send({"kind": "stats", "seq": 0})
            await client.recv()
            forgotten = service.counters["duplicates"]
            # The newest seq is still cached: replayed, one duplicate.
            await client.send({"kind": "stats", "seq": REPLY_CACHE_SIZE})
            await client.recv()
            await client.close()
            await serve
            return forgotten, service.counters["duplicates"]

        assert run(body()) == (0, 1)

    def test_serve_creates_no_task_per_message(self):
        async def body():
            loop = asyncio.get_running_loop()
            service = VerifierService()
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            created = []

            def counting_factory(loop, coroutine, **kwargs):
                created.append(coroutine)
                return asyncio.Task(coroutine, loop=loop, **kwargs)

            loop.set_task_factory(counting_factory)
            try:
                for seq in range(10):
                    await client.send({"kind": "stats", "seq": seq})
                    assert (await client.recv())["seq"] == seq
            finally:
                loop.set_task_factory(None)
            await client.close()
            await asyncio.wait_for(serve, timeout=1.0)
            return len(created)

        assert run(body()) == 0
