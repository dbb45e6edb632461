"""Seq-correlated RPC over a loopback transport.

:class:`RpcChannel` is the request/reply discipline the prover
endpoint speaks over a
:class:`~repro.net.transport.LoopbackTransport`: every request carries a
fresh ``seq``, the reply echoes it, and replies bearing other sequence
numbers are dropped.  The link loses nothing, but a caller can cancel a
call after its request went out; the service still answers that
request, and the channel's next call sheds the stale reply by ``seq``.
One call is in flight at a time per channel -- callers that want
pipelining open more channels.

A channel is its transport's one receiver on the prover side: its lock
keeps one ``recv`` waiting at a time, which is all a
:class:`~repro.net.transport.LoopbackTransport` endpoint admits.
"""

from __future__ import annotations

import asyncio
import itertools

from repro.net.transport import LoopbackTransport


class RpcChannel:
    """One-call-at-a-time request/reply discipline over a transport."""

    def __init__(self, transport: LoopbackTransport):
        self.transport = transport
        self._seq = itertools.count()
        self._lock = asyncio.Lock()

    async def call(self, message) -> dict:
        """Send *message* and await the reply bearing its ``seq``.

        One round trip at a time per channel: without the lock, two
        concurrent calls would both wait on the transport, which a
        loopback endpoint refuses (its second ``recv`` raises).
        """
        async with self._lock:
            seq = next(self._seq)
            await self.transport.send(dict(message, seq=seq))
            while True:
                reply = await self.transport.recv()
                if reply.get("seq") == seq:
                    return reply

    async def close(self):
        await self.transport.close()
