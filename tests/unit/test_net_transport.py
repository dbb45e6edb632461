"""Unit tests for the fleet service's loopback message transport."""

import asyncio
import random

import pytest

from repro.net.transport import (
    ClosedTransportError,
    LinkConditions,
    loopback_pair,
)


def run(coroutine):
    return asyncio.run(coroutine)


class TestLinkConditions:
    def test_defaults_are_unimpaired(self):
        assert not LinkConditions().impaired

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            LinkConditions(loss=1.5)
        with pytest.raises(ValueError):
            LinkConditions(reorder=-0.1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LinkConditions(delay=-1.0)


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

    def test_total_loss_drops_every_message(self):
        async def body():
            left, right = loopback_pair(LinkConditions(loss=1.0))
            await left.send("dropped")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(right.recv(), timeout=0.05)

        run(body())

    def test_partial_loss_is_deterministic_per_seed(self):
        def survivors(seed):
            async def body():
                left, right = loopback_pair(LinkConditions(loss=0.5, seed=seed))
                for index in range(20):
                    await left.send(index)
                received = []
                while True:
                    try:
                        received.append(
                            await asyncio.wait_for(right.recv(), timeout=0.05))
                    except asyncio.TimeoutError:
                        return received

            return run(body())

        first = survivors(seed=7)
        assert first == survivors(seed=7)  # deterministic
        assert 0 < len(first) < 20  # actually lossy, not all-or-nothing

    def test_latency_delays_but_delivers(self):
        async def body():
            left, right = loopback_pair(LinkConditions(delay=0.02))
            await left.send("late")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(right.recv(), timeout=0.001)
            return await asyncio.wait_for(right.recv(), timeout=1.0)

        assert run(body()) == "late"

    def test_reorder_swaps_adjacent_messages(self):
        # With reorder=1.0 every message is held behind its successor,
        # so a pair (a, b) arrives as (b, a).
        async def body():
            left, right = loopback_pair(LinkConditions(reorder=1.0))
            await left.send("a")
            await left.send("b")
            return [await right.recv(), await right.recv()]

        assert run(body()) == ["b", "a"]


class TestLinkConditionDraws:
    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            LinkConditions(jitter=-0.5)

    def test_each_impairment_marks_the_link_impaired(self):
        for field in ("loss", "delay", "jitter", "reorder"):
            assert LinkConditions(**{field: 0.5}).impaired, field

    def test_latency_stays_within_delay_plus_jitter(self):
        conditions = LinkConditions(delay=0.01, jitter=0.02)
        rng = random.Random(3)
        samples = [conditions.latency(rng) for _ in range(200)]
        assert all(0.01 <= sample <= 0.03 for sample in samples)
        assert len(set(samples)) > 1

    def test_latency_without_jitter_draws_nothing(self):
        # A fixed delay must not consume the endpoint's stream, or it
        # would shift every later loss and reorder draw.
        rng = random.Random(3)
        state = rng.getstate()
        assert LinkConditions(delay=0.25).latency(rng) == 0.25
        assert rng.getstate() == state


def _survivors(left, right, count):
    """Send ``0..count-1`` from *left*; collect what reaches *right*."""

    async def body():
        for index in range(count):
            await left.send(index)
        received = []
        while True:
            try:
                received.append(await asyncio.wait_for(right.recv(), timeout=0.05))
            except asyncio.TimeoutError:
                return received

    return body()


class TestLoopbackEndpoints:
    def test_each_direction_draws_its_own_seeded_stream(self):
        # loopback_pair gives the left endpoint ``seed`` and the right
        # ``seed + 1``: right-to-left traffic under seed 7 is dropped
        # exactly like left-to-right traffic under seed 8.
        async def backwards(seed):
            left, right = loopback_pair(LinkConditions(loss=0.5, seed=seed))
            return await _survivors(right, left, 20)

        async def forwards(seed):
            left, right = loopback_pair(LinkConditions(loss=0.5, seed=seed))
            return await _survivors(left, right, 20)

        assert run(backwards(7)) == run(forwards(8))
        assert run(backwards(7)) != run(forwards(7))

    def test_partial_reorder_only_swaps_neighbours(self):
        async def body():
            left, right = loopback_pair(LinkConditions(reorder=0.5, seed=3))
            return await _survivors(left, right, 30)

        received = run(body())
        assert received == run(body())  # deterministic
        assert received != sorted(received)  # something was reordered
        assert len(set(received)) == len(received)  # nothing duplicated
        # Only the final message may still be held back, and a held
        # message lands right behind the one that overtook it.
        assert set(range(29)) <= set(received)
        assert all(abs(position - value) <= 1
                   for position, value in enumerate(received))

    def test_unconnected_endpoint_refuses_to_send(self):
        from repro.net.transport import LoopbackTransport

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

    def test_second_close_is_harmless(self):
        async def body():
            left, right = loopback_pair()
            await left.close()
            await left.close()
            with pytest.raises(ClosedTransportError):
                await right.recv()

        run(body())

    def test_held_back_message_is_dropped_on_close(self):
        # With reorder=1.0 the lone message waits for a successor that
        # never comes; closing drops it like in-flight loss.
        async def body():
            left, right = loopback_pair(LinkConditions(reorder=1.0))
            await left.send("held")
            await left.close()
            with pytest.raises(ClosedTransportError):
                await right.recv()

        run(body())

    def test_close_cancels_delayed_deliveries(self):
        async def body():
            left, right = loopback_pair(LinkConditions(delay=0.02))
            await left.send("in flight")
            await left.close()
            with pytest.raises(ClosedTransportError):
                await right.recv()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(right.recv(), timeout=0.1)

        run(body())
