"""Unit tests for the fleet service's loopback message transport."""

import asyncio

import pytest

from repro.net.transport import ClosedTransportError, LoopbackTransport, loopback_pair


def run(coroutine):
    return asyncio.run(coroutine)


class TestLoopbackTransport:
    def test_roundtrip_preserves_order(self):
        async def body():
            left, right = loopback_pair()
            for index in range(5):
                await left.send({"n": index})
            return [await right.recv() for _ in range(5)]

        assert run(body()) == [{"n": index} for index in range(5)]

    def test_bidirectional(self):
        async def body():
            left, right = loopback_pair()
            await left.send("ping")
            assert await right.recv() == "ping"
            await right.send("pong")
            return await left.recv()

        assert run(body()) == "pong"

    def test_close_unblocks_peer_recv(self):
        async def body():
            left, right = loopback_pair()
            await left.close()
            with pytest.raises(ClosedTransportError):
                await right.recv()

        run(body())

    def test_send_after_peer_close_raises(self):
        async def body():
            left, right = loopback_pair()
            await right.close()
            with pytest.raises(ClosedTransportError):
                await left.send("into the void")

        run(body())

    def test_messages_are_passed_by_reference(self):
        async def body():
            left, right = loopback_pair()
            message = {"kind": "report", "report": object()}
            await left.send(message)
            return message, await right.recv()

        sent, received = run(body())
        assert received is sent

    def test_a_send_completes_without_suspending(self):
        # The service sends each reply inline in its serve loop: a
        # loopback send appends to the peer's inbox and never yields.
        left, right = loopback_pair()
        sending = left.send("no await point")
        with pytest.raises(StopIteration):
            sending.send(None)
        assert run(right.recv()) == "no await point"

    def test_each_direction_keeps_its_own_order(self):
        async def body():
            left, right = loopback_pair()
            for index in range(3):
                await left.send(("left", index))
                await right.send(("right", index))
            from_left = [await right.recv() for _ in range(3)]
            from_right = [await left.recv() for _ in range(3)]
            return from_left, from_right

        from_left, from_right = run(body())
        assert from_left == [("left", index) for index in range(3)]
        assert from_right == [("right", index) for index in range(3)]

    def test_a_waiting_recv_gets_the_next_send(self):
        async def body():
            left, right = loopback_pair()
            waiting = asyncio.ensure_future(right.recv())
            await asyncio.sleep(0)
            assert not waiting.done()
            await left.send("woken")
            return await asyncio.wait_for(waiting, timeout=0.5)

        assert run(body()) == "woken"


class TestLoopbackEndpoints:
    def test_unconnected_endpoint_refuses_to_send(self):
        async def body():
            with pytest.raises(ClosedTransportError):
                await LoopbackTransport().send("nobody listens")

        run(body())

    def test_recv_after_own_close_raises(self):
        async def body():
            left, _right = loopback_pair()
            await left.close()
            with pytest.raises(ClosedTransportError):
                await left.recv()

        run(body())

    def test_close_fails_a_recv_waiting_on_the_closed_endpoint(self):
        async def body():
            left, right = loopback_pair()
            waiting = asyncio.ensure_future(left.recv())
            await asyncio.sleep(0)
            await left.close()
            with pytest.raises(ClosedTransportError):
                await asyncio.wait_for(waiting, timeout=0.5)
            # The peer's recv fails too: nothing was sent before the close.
            with pytest.raises(ClosedTransportError):
                await asyncio.wait_for(right.recv(), timeout=0.5)

        run(body())

    def test_a_closed_peer_fails_every_later_recv(self):
        async def body():
            left, right = loopback_pair()
            await left.send("sent before the close")
            await left.close()
            assert await right.recv() == "sent before the close"
            for _ in range(2):
                with pytest.raises(ClosedTransportError):
                    await asyncio.wait_for(right.recv(), timeout=0.5)

        run(body())

    def test_a_recv_cancelled_after_its_wake_up_leaves_the_message_queued(self):
        async def body():
            left, right = loopback_pair()
            waiting = asyncio.ensure_future(right.recv())
            await asyncio.sleep(0)
            # The send wakes the waiting recv; it is cancelled before it
            # resumes, so it never takes the message.
            await left.send("kept")
            waiting.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiting
            return await asyncio.wait_for(right.recv(), timeout=0.5)

        assert run(body()) == "kept"

    def test_a_second_concurrent_recv_raises(self):
        async def body():
            left, right = loopback_pair()
            first = asyncio.ensure_future(right.recv())
            await asyncio.sleep(0)
            with pytest.raises(RuntimeError):
                await asyncio.wait_for(right.recv(), timeout=0.5)
            # The first receiver still gets the next message.
            await left.send("for the first")
            return await asyncio.wait_for(first, timeout=0.5)

        assert run(body()) == "for the first"

    def test_send_after_own_close_raises(self):
        async def body():
            left, right = loopback_pair()
            await left.close()
            with pytest.raises(ClosedTransportError):
                await left.send("after my own close")
            # Nothing but the close reached the peer.
            with pytest.raises(ClosedTransportError):
                await asyncio.wait_for(right.recv(), timeout=0.5)

        run(body())

    def test_a_recv_waiting_on_the_peer_fails_at_the_peers_close(self):
        async def body():
            left, right = loopback_pair()
            waiting = asyncio.ensure_future(right.recv())
            await asyncio.sleep(0)
            await left.close()
            with pytest.raises(ClosedTransportError):
                await asyncio.wait_for(waiting, timeout=0.5)

        run(body())

    def test_a_cancelled_waiting_recv_frees_the_endpoint(self):
        async def body():
            left, right = loopback_pair()
            waiting = asyncio.ensure_future(right.recv())
            await asyncio.sleep(0)
            waiting.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiting
            # The cancelled receiver is gone: a new recv may wait, and
            # gets the next message.
            again = asyncio.ensure_future(right.recv())
            await asyncio.sleep(0)
            await left.send("for the second receiver")
            return await asyncio.wait_for(again, timeout=0.5)

        assert run(body()) == "for the second receiver"

    def test_closing_both_ends_fails_both_sides(self):
        async def body():
            left, right = loopback_pair()
            await left.send("never received")
            await left.close()
            await right.close()
            for endpoint in (left, right):
                with pytest.raises(ClosedTransportError):
                    await asyncio.wait_for(endpoint.recv(), timeout=0.5)
                with pytest.raises(ClosedTransportError):
                    await endpoint.send("after both closed")

        run(body())

    def test_second_close_is_harmless(self):
        async def body():
            left, right = loopback_pair()
            await left.close()
            await left.close()
            with pytest.raises(ClosedTransportError):
                await right.recv()

        run(body())
