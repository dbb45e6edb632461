"""Message transport for the fleet attestation service.

The service layer (:mod:`repro.net.service`) is written against one
tiny abstraction: a bidirectional, message-oriented, asyncio
:class:`MessageTransport`.  One implementation ships:
:func:`loopback_pair`, two in-process endpoints that append to each
other's inbox, so a fleet of simulated provers and its verifier
services share one event loop.

It accepts :class:`LinkConditions` -- injectable loss, latency and
reordering -- so scenarios can exercise the protocol's failure paths
(timeouts, stale challenges, duplicate deliveries) deterministically:
impairments draw from a ``random.Random`` seeded per endpoint, never
from global randomness.

Messages are plain data: dicts of primitives plus the attestation
report dataclass, passed by reference.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple


class ClosedTransportError(ConnectionError):
    """The peer closed the transport."""


@dataclass(frozen=True)
class LinkConditions:
    """Injectable link impairments (applied on the sending side).

    ``loss`` is the probability a message is silently dropped;
    ``delay``/``jitter`` add ``delay + U(0, jitter)`` seconds of
    latency; ``reorder`` is the probability a message is held back and
    delivered right after the next one.  ``seed`` makes every draw
    deterministic per endpoint.
    """

    loss: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    reorder: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("loss", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must be a probability, got %r" % (name, value))
        if self.delay < 0 or self.jitter < 0:
            raise ValueError("delay and jitter must be >= 0")

    @property
    def impaired(self):
        """``True`` when any impairment is configured."""
        return bool(self.loss or self.delay or self.jitter or self.reorder)

    def latency(self, rng: random.Random) -> float:
        """Draw one latency sample."""
        return self.delay + (rng.random() * self.jitter if self.jitter else 0.0)


class MessageTransport:
    """One endpoint of a bidirectional message channel (abstract)."""

    async def send(self, message):
        """Deliver *message* to the peer (subject to link conditions)."""
        raise NotImplementedError

    async def recv(self):
        """Await the next message from the peer.

        :raises ClosedTransportError: when the peer has closed (on this
            call and every later one), or this endpoint has.
        """
        raise NotImplementedError

    async def close(self):
        """Close this endpoint; the peer's pending ``recv`` fails."""


#: The peer's close, as it sits in an inbox: behind every message sent
#: before it, and never taken out, so every later ``recv`` meets it too.
_CLOSED = object()


class LoopbackTransport(MessageTransport):
    """In-process endpoint: sends append to the peer's inbox.

    The inbox is a deque with room for one waiting ``recv``: an endpoint
    has one receiver at a time (the service's ``serve`` loop on one
    side, the prover's :class:`~repro.net.rpc.RpcChannel` under its lock
    on the other), and a second concurrent ``recv`` raises
    :class:`RuntimeError`.  A delivery appends the message and wakes
    that receiver; a ``recv`` cancelled after the wake-up leaves the
    message queued for the next one, which the retry layer's reply
    windows rely on.

    Both endpoints must live on the same event loop; the fleet harness
    multiplexes every prover and the verifier service on one loop, so
    that is the natural habitat.
    """

    def __init__(self, conditions: Optional[LinkConditions] = None,
                 seed_offset=0):
        #: Delivered messages not yet received, in arrival order.
        self._inbox = deque()
        #: The future the waiting ``recv`` sleeps on, or ``None``.
        self._waiter = None
        self._peer: Optional["LoopbackTransport"] = None
        self.conditions = conditions or LinkConditions()
        self._rng = random.Random(self.conditions.seed + seed_offset)
        self._held = None
        self._closed = False
        self._deliveries = set()

    def _connect(self, peer: "LoopbackTransport"):
        self._peer = peer

    def _admit(self, message):
        """Apply loss and reordering; return the messages to deliver now.

        Reordering holds a message back until the next send, so a held
        message is emitted *after* the one that follows it.
        """
        conditions = self.conditions
        if conditions.loss and self._rng.random() < conditions.loss:
            return []
        out = [message]
        if self._held is not None:
            out.append(self._held)
            self._held = None
        elif conditions.reorder and self._rng.random() < conditions.reorder:
            self._held = message
            return []
        return out

    async def send(self, message):
        peer = self._peer
        if self._closed or peer is None or peer._closed:
            raise ClosedTransportError("loopback peer is closed")
        for item in self._admit(message):
            latency = self.conditions.latency(self._rng)
            if latency:
                task = asyncio.ensure_future(self._deliver_later(peer, item, latency))
                self._deliveries.add(task)
                task.add_done_callback(self._deliveries.discard)
            else:
                peer._deliver(item)

    async def _deliver_later(self, peer, item, latency):
        await asyncio.sleep(latency)
        if not peer._closed:
            peer._deliver(item)

    def _deliver(self, item):
        """Queue *item* in this endpoint's inbox and wake its receiver."""
        self._inbox.append(item)
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def recv(self):
        if self._closed:
            raise ClosedTransportError("transport is closed")
        if self._waiter is not None:
            raise RuntimeError("another recv is already waiting on this endpoint")
        inbox = self._inbox
        while not inbox:
            waiter = self._waiter = asyncio.get_running_loop().create_future()
            try:
                await waiter
            finally:
                self._waiter = None
        if inbox[0] is _CLOSED:
            raise ClosedTransportError("loopback peer closed")
        return inbox.popleft()

    async def close(self):
        if self._closed:
            return
        self._closed = True
        for task in list(self._deliveries):
            task.cancel()
        if self._peer is not None and not self._peer._closed:
            # A held-back (reordered) message never flushes after close:
            # the link dropped it, exactly like in-flight loss.
            self._peer._deliver(_CLOSED)


def loopback_pair(conditions: Optional[LinkConditions] = None,
                  ) -> Tuple[LoopbackTransport, LoopbackTransport]:
    """Return two connected in-process endpoints.

    *conditions* apply to both directions, each endpoint drawing from
    its own deterministic stream (``seed`` and ``seed + 1``).
    """
    left = LoopbackTransport(conditions, seed_offset=0)
    right = LoopbackTransport(conditions, seed_offset=1)
    left._connect(right)
    right._connect(left)
    return left, right
