"""Unit tests for the RPC channel (`repro.net.rpc`) and the reply cache.

The contract under test: :class:`RpcChannel` gives every request a
fresh ``seq`` and returns the reply bearing it, shedding the stale
reply of a call its caller cancelled, and the service answers a request
that repeats an answered ``seq`` from its per-connection reply cache --
never by executing it twice.
"""

import asyncio

import pytest

from repro.net import ClosedTransportError, VerifierService, loopback_pair
from repro.net.service import REPLY_CACHE_SIZE
from repro.net.rpc import RpcChannel


def run(coroutine):
    return asyncio.run(coroutine)


def echo_server(transport):
    """Reply ``pong`` to every ping."""

    async def serve():
        while True:
            message = await transport.recv()
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
            return reply

        reply = run(body())
        assert reply["kind"] == "pong" and reply["echo"] == 7

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

    def test_straggler_replies_are_dropped(self):
        # A caller cancels a call after its request went out; the reply
        # to it arrives while the next call waits, and is shed by seq.
        async def body():
            client, server_side = loopback_pair()
            channel = RpcChannel(client)
            cancelled = asyncio.ensure_future(channel.call({"kind": "ping"}))
            stale = await server_side.recv()
            cancelled.cancel()
            with pytest.raises(asyncio.CancelledError):
                await cancelled
            await server_side.send({"kind": "pong", "seq": stale["seq"]})
            answered = asyncio.ensure_future(channel.call({"kind": "ping"}))
            request = await server_side.recv()
            await server_side.send({"kind": "pong", "seq": request["seq"]})
            reply = await asyncio.wait_for(answered, timeout=1.0)
            await channel.close()
            return stale["seq"], reply["seq"]

        # The second call got the reply bearing *its* seq.
        assert run(body()) == (0, 1)

    def test_every_stale_reply_ahead_of_the_answer_is_shed(self):
        # Two cancelled calls, and a reply with no seq at all, queue up
        # ahead of the answer to the third call.
        async def body():
            client, server_side = loopback_pair()
            channel = RpcChannel(client)
            stale = []
            for _ in range(2):
                cancelled = asyncio.ensure_future(channel.call({"kind": "ping"}))
                stale.append((await server_side.recv())["seq"])
                cancelled.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await cancelled
            for seq in stale:
                await server_side.send({"kind": "pong", "seq": seq})
            await server_side.send({"kind": "pong"})
            answered = asyncio.ensure_future(
                channel.call({"kind": "ping", "payload": "mine"}))
            request = await server_side.recv()
            await server_side.send({"kind": "pong", "seq": request["seq"],
                                    "echo": request["payload"]})
            reply = await asyncio.wait_for(answered, timeout=1.0)
            await channel.close()
            return stale, reply

        stale, reply = run(body())
        assert stale == [0, 1]
        assert reply == {"kind": "pong", "seq": 2, "echo": "mine"}

    def test_the_callers_message_is_left_unchanged(self):
        async def body():
            client, server_side = loopback_pair()
            server = echo_server(server_side)
            channel = RpcChannel(client)
            message = {"kind": "ping", "payload": 3}
            replies = [await channel.call(message) for _ in range(2)]
            server.cancel()
            await channel.close()
            return message, replies

        message, replies = run(body())
        # Each call sends a copy carrying its own seq.
        assert message == {"kind": "ping", "payload": 3}
        assert [reply["seq"] for reply in replies] == [0, 1]

    def test_concurrent_calls_each_get_their_own_reply(self):
        async def body():
            client, server_side = loopback_pair()
            server = echo_server(server_side)
            channel = RpcChannel(client)
            replies = await asyncio.wait_for(asyncio.gather(*[
                channel.call({"kind": "ping", "payload": index})
                for index in range(5)
            ]), timeout=1.0)
            server.cancel()
            await channel.close()
            return replies

        replies = run(body())
        # The lock serialises the calls in order: call i is seq i.
        assert [(reply["seq"], reply["echo"]) for reply in replies] == \
            [(index, index) for index in range(5)]

    def test_a_call_on_a_closed_channel_raises(self):
        async def body():
            client, _server_side = loopback_pair()
            channel = RpcChannel(client)
            await channel.close()
            with pytest.raises(ClosedTransportError):
                await asyncio.wait_for(channel.call({"kind": "ping"}),
                                       timeout=0.5)

        run(body())

    def test_a_call_fails_when_the_server_closes_before_replying(self):
        # Nothing is lost on a loopback link, so an unanswered call
        # ends when the other side closes, not after a timeout.
        async def body():
            client, server_side = loopback_pair()
            channel = RpcChannel(client)
            call = asyncio.ensure_future(channel.call({"kind": "ping"}))
            request = await server_side.recv()
            await server_side.close()
            with pytest.raises(ClosedTransportError):
                await asyncio.wait_for(call, timeout=0.5)
            return request

        assert run(body())["seq"] == 0


class TestServiceDedup:
    """Repeated requests against the real service: at-most-once execution."""

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

    def test_reply_caches_are_per_connection(self):
        # The same seq on two connections is two requests: each
        # connection numbers its own calls.
        async def body():
            service = VerifierService()
            service.verifier.enroll("prover")
            connections = [loopback_pair() for _ in range(2)]
            serves = [asyncio.ensure_future(service.serve(server_side))
                      for _, server_side in connections]
            replies = []
            for client, _ in connections:
                await client.send({"kind": "attest", "seq": 0,
                                   "device_id": "prover"})
                replies.append(await asyncio.wait_for(client.recv(),
                                                      timeout=1.0))
            for client, _ in connections:
                await client.close()
            await asyncio.gather(*serves)
            return service, replies

        service, (first, second) = run(body())
        assert first["kind"] == second["kind"] == "challenge"
        assert first["challenge"] != second["challenge"]
        assert service.counters["challenges"] == 2
        assert service.counters["duplicates"] == 0

    def test_an_error_reply_is_replayed_not_recomputed(self):
        async def body():
            service = VerifierService()
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            replies = []
            for _ in range(2):
                await client.send({"kind": "attest", "seq": 9,
                                   "device_id": "never-enrolled"})
                replies.append(await asyncio.wait_for(client.recv(),
                                                      timeout=1.0))
            await client.close()
            await serve
            return service, replies

        service, (first, second) = run(body())
        assert first["kind"] == "error" and second == first
        assert service.counters["errors"] == 1
        assert service.counters["duplicates"] == 1

    def test_a_repeated_seq_replays_the_original_whatever_the_request(self):
        # The seq names the request: a second message under an answered
        # seq is a duplicate even when its body differs, so it is never
        # executed.
        async def body():
            service = VerifierService()
            service.verifier.enroll("prover")
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            await client.send({"kind": "stats", "seq": 3})
            first = await asyncio.wait_for(client.recv(), timeout=1.0)
            await client.send({"kind": "attest", "seq": 3,
                               "device_id": "prover"})
            second = await asyncio.wait_for(client.recv(), timeout=1.0)
            await client.close()
            await serve
            return service, first, second

        service, first, second = run(body())
        assert first["kind"] == "stats" and second == first
        assert service.counters["challenges"] == 0
        assert service.pending_challenges == 0
        assert service.counters["duplicates"] == 1
