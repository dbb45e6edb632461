"""Property-based tests for the lossless loopback fleet link.

* **The link**: whatever the interleaving of sends and receives in the
  two directions, each endpoint receives every message its peer sent,
  once, in the order sent; a close delivers exactly what was sent
  before it, then fails every later ``recv``.
* **The RPC channel**: whichever calls their callers cancel after the
  request went out, every call that completes returns the reply
  bearing its own ``seq``.
* **The service (at-most-once)**: for any sequence of requests with
  repeated ``seq`` values, the service executes each ``seq`` once and
  answers every repeat with the original reply.
"""

import asyncio
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import ClosedTransportError, RpcChannel, VerifierService, loopback_pair
from repro.net.service import REPLY_CACHE_SIZE

#: One step of a two-way exchange: send or receive, on the left or the
#: right endpoint.
_STEPS = st.lists(st.sampled_from(["send-left", "send-right",
                                   "recv-left", "recv-right"]),
                  max_size=60)


class TestLosslessLoopback:
    @settings(max_examples=100, deadline=None)
    @given(steps=_STEPS)
    def test_every_message_arrives_once_in_order_each_way(self, steps):
        async def body():
            left, right = loopback_pair()
            endpoints = {"left": left, "right": right}
            peer = {"left": "right", "right": "left"}
            # What each endpoint has been sent and not yet received.
            pending = {"left": deque(), "right": deque()}
            for number, step in enumerate(steps):
                action, side = step.split("-")
                if action == "send":
                    message = (side, number)
                    await endpoints[side].send(message)
                    pending[peer[side]].append(message)
                elif pending[side]:
                    received = await asyncio.wait_for(
                        endpoints[side].recv(), timeout=0.5)
                    assert received == pending[side].popleft()
            for side, queued in pending.items():
                while queued:
                    received = await asyncio.wait_for(
                        endpoints[side].recv(), timeout=0.5)
                    assert received == queued.popleft()

        asyncio.run(body())

    @settings(max_examples=50, deadline=None)
    @given(before=st.integers(min_value=0, max_value=20),
           after=st.integers(min_value=0, max_value=5))
    def test_a_close_delivers_exactly_what_was_sent_before_it(self, before,
                                                              after):
        async def body():
            left, right = loopback_pair()
            for index in range(before):
                await left.send(index)
            await left.close()
            for index in range(after):
                with pytest.raises(ClosedTransportError):
                    await left.send(before + index)
            received = [await right.recv() for _ in range(before)]
            for _ in range(2):
                with pytest.raises(ClosedTransportError):
                    await asyncio.wait_for(right.recv(), timeout=0.5)
            return received

        assert asyncio.run(body()) == list(range(before))


class TestRpcChannelReplies:
    @settings(max_examples=50, deadline=None)
    @given(cancelled=st.lists(st.booleans(), min_size=1, max_size=12))
    def test_each_completed_call_gets_its_own_reply(self, cancelled):
        async def body():
            client, server_side = loopback_pair()
            channel = RpcChannel(client)
            for index, cancel in enumerate(cancelled):
                call = asyncio.ensure_future(
                    channel.call({"kind": "ping", "payload": index}))
                request = await server_side.recv()
                assert request["seq"] == index
                if cancel:
                    # The caller gives up; the reply still comes, late.
                    call.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await call
                await server_side.send({"kind": "pong", "seq": request["seq"],
                                        "echo": request["payload"]})
                if not cancel:
                    reply = await asyncio.wait_for(call, timeout=0.5)
                    assert (reply["seq"], reply["echo"]) == (index, index)
            await channel.close()

        asyncio.run(body())


class TestServiceAtMostOnce:
    @settings(max_examples=50, deadline=None)
    @given(seqs=st.lists(st.integers(min_value=0, max_value=9),
                         min_size=1, max_size=30))
    def test_each_seq_executes_once(self, seqs):
        assert len(set(seqs)) <= REPLY_CACHE_SIZE

        async def body():
            service = VerifierService()
            service.verifier.enroll("prover")
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            replies = []
            for seq in seqs:
                await client.send({"kind": "attest", "seq": seq,
                                   "device_id": "prover"})
                replies.append(await asyncio.wait_for(client.recv(),
                                                      timeout=0.5))
            await client.close()
            await serve
            return service, replies

        service, replies = asyncio.run(body())
        first = {}
        for seq, reply in zip(seqs, replies):
            assert reply["kind"] == "challenge" and reply["seq"] == seq
            assert first.setdefault(seq, reply) == reply
        # One fresh challenge per distinct seq; every repeat replayed.
        assert len({reply["challenge"] for reply in first.values()}) == len(first)
        assert service.counters["challenges"] == len(first)
        assert service.counters["duplicates"] == len(seqs) - len(first)
