"""In-process message transport for the fleet attestation service.

:func:`loopback_pair` returns two connected :class:`LoopbackTransport`
endpoints that append to each other's inbox, so a fleet of simulated
provers and its verifier services share one event loop.  The link is
lossless: every message sent arrives once, in the order it was sent.

Messages are plain data: dicts of primitives plus the attestation
report dataclass, passed by reference.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Optional, Tuple


class ClosedTransportError(ConnectionError):
    """The peer closed the transport."""


#: The peer's close, as it sits in an inbox: behind every message sent
#: before it, and never taken out, so every later ``recv`` meets it too.
_CLOSED = object()


class LoopbackTransport:
    """One endpoint of an in-process channel: sends append to the peer's inbox.

    The inbox is a deque with room for one waiting ``recv``: an endpoint
    has one receiver at a time (the service's ``serve`` loop on one
    side, the prover's :class:`~repro.net.rpc.RpcChannel` under its lock
    on the other), and a second concurrent ``recv`` raises
    :class:`RuntimeError`.  A delivery appends the message and wakes
    that receiver; a ``recv`` cancelled after the wake-up leaves the
    message queued for the next one.

    Both endpoints must live on the same event loop; the fleet harness
    multiplexes every prover and the verifier service on one loop, so
    that is the natural habitat.
    """

    def __init__(self):
        #: Delivered messages not yet received, in arrival order.
        self._inbox = deque()
        #: The future the waiting ``recv`` sleeps on, or ``None``.
        self._waiter = None
        self._peer: Optional["LoopbackTransport"] = None
        self._closed = False

    async def send(self, message):
        """Append *message* to the peer's inbox.

        :raises ClosedTransportError: when either endpoint has closed.
        """
        peer = self._peer
        if self._closed or peer is None or peer._closed:
            raise ClosedTransportError("loopback peer is closed")
        peer._deliver(message)

    def _deliver(self, item):
        """Queue *item* in this endpoint's inbox and wake its receiver."""
        self._inbox.append(item)
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def recv(self):
        """Await the next message from the peer.

        :raises ClosedTransportError: once this endpoint has closed (a
            ``recv`` waiting at the close too), and once the peer has
            closed and every message it sent before closing was received.
        """
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
            if self._closed:
                raise ClosedTransportError("transport is closed")
        if inbox[0] is _CLOSED:
            raise ClosedTransportError("loopback peer closed")
        return inbox.popleft()

    async def close(self):
        """Close this endpoint.

        A ``recv`` waiting on it raises :class:`ClosedTransportError`
        now; the peer's ``recv`` raises once it has received every
        message sent before the close.
        """
        if self._closed:
            return
        self._closed = True
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)
        if self._peer is not None and not self._peer._closed:
            self._peer._deliver(_CLOSED)


def loopback_pair() -> Tuple[LoopbackTransport, LoopbackTransport]:
    """Return two connected in-process endpoints."""
    left, right = LoopbackTransport(), LoopbackTransport()
    left._peer, right._peer = right, left
    return left, right
