"""Seq-correlated RPC over a message transport, with optional retries.

:class:`RpcChannel` is the request/reply discipline the prover
endpoint speaks over a
:class:`~repro.net.transport.MessageTransport`: every request carries a
fresh ``seq``, the reply echoes it, and replies bearing other sequence
numbers (stragglers from earlier, timed-out calls on the same
transport) are dropped.  One call is in flight at a time per channel --
callers that want pipelining open more channels.

:class:`RetryPolicy` turns a lossy link from a per-exchange death
sentence into a bounded retransmit schedule: each attempt waits
``base_timeout * multiplier**i`` (capped at ``max_timeout``) for the
reply, then retransmits the *same* message -- same ``seq``, so the
service's per-connection reply cache recognises the duplicate and
re-sends the original reply instead of executing the request twice.
That dedup is what keeps retransmits from double-consuming a challenge
or double-counting a verdict; see
:meth:`repro.net.service.VerifierService.serve`.

The growing attempt timeout *is* the exponential backoff (TCP-RTO
style): waiting longer before each retransmit is both the politeness
and the pacing, with no idle sleep on top.  The whole schedule runs
inside the caller's per-exchange deadline -- ``asyncio.wait_for``
around the exchange cancels the channel mid-attempt.  A loopback
``recv`` cancelled by either timeout, even after a reply has woken it,
leaves that reply queued: the call's next attempt takes it, and a later
call sheds it by ``seq``.

A channel is its transport's one receiver on the prover side: its lock
keeps one ``recv`` waiting at a time, which is all a
:class:`~repro.net.transport.LoopbackTransport` endpoint admits.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.net.transport import MessageTransport


class RpcTimeout(asyncio.TimeoutError):
    """Every retransmit attempt of one call went unanswered."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmit schedule for requests on an impaired link.

    ``max_attempts`` bounds the number of transmissions (``None`` means
    retry until the caller's deadline cancels the call -- only safe
    under an outer deadline); attempt *i* waits
    ``min(base_timeout * multiplier**i, max_timeout)`` seconds for the
    reply before retransmitting.
    """

    max_attempts: Optional[int] = 6
    base_timeout: float = 0.05
    multiplier: float = 2.0
    max_timeout: float = 1.0

    def __post_init__(self):
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 or None, got %r"
                             % (self.max_attempts,))
        if self.base_timeout <= 0:
            raise ValueError("base_timeout must be > 0, got %r"
                             % (self.base_timeout,))
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1, got %r"
                             % (self.multiplier,))
        if self.max_timeout < self.base_timeout:
            raise ValueError("max_timeout must be >= base_timeout")

    @property
    def bounded(self) -> bool:
        """``True`` when the schedule terminates on its own."""
        return self.max_attempts is not None

    def attempt_timeouts(self) -> Iterator[float]:
        """Yield the per-attempt reply timeouts, in order."""
        attempt = 0
        while self.max_attempts is None or attempt < self.max_attempts:
            yield min(self.base_timeout * self.multiplier ** attempt,
                      self.max_timeout)
            attempt += 1

    def worst_case_seconds(self) -> Optional[float]:
        """Total reply-wait time of a fully exhausted schedule."""
        if self.max_attempts is None:
            return None
        return sum(self.attempt_timeouts())


class RpcChannel:
    """One-call-at-a-time request/reply discipline over a transport."""

    def __init__(self, transport: MessageTransport,
                 retry: Optional[RetryPolicy] = None):
        self.transport = transport
        self.retry = retry
        #: Requests retransmitted because an attempt's reply window closed.
        self.retransmits = 0
        self._seq = itertools.count()
        self._lock = asyncio.Lock()

    async def call(self, message, retry: Optional[RetryPolicy] = None) -> dict:
        """Send *message* and await the reply bearing its ``seq``.

        One round trip at a time per channel: without the lock, two
        concurrent calls would both wait on the transport, which a
        loopback endpoint refuses (its second ``recv`` raises), and
        elsewhere each would consume -- and drop -- the other's reply.
        *retry* overrides the channel policy for this call (``None``
        falls back to it).

        :raises RpcTimeout: when a bounded retry schedule is exhausted.
        """
        policy = retry if retry is not None else self.retry
        async with self._lock:
            seq = next(self._seq)
            message = dict(message, seq=seq)
            if policy is None:
                await self.transport.send(message)
                return await self._recv_reply(seq)
            attempts = 0
            for timeout in policy.attempt_timeouts():
                attempts += 1
                if attempts > 1:
                    self.retransmits += 1
                await self.transport.send(message)
                try:
                    return await asyncio.wait_for(self._recv_reply(seq),
                                                  timeout=timeout)
                except asyncio.TimeoutError:
                    continue
            raise RpcTimeout(
                "no reply to %r after %d attempts"
                % (message.get("kind"), attempts))

    async def _recv_reply(self, seq) -> dict:
        while True:
            reply = await self.transport.recv()
            if reply.get("seq") == seq:
                return reply

    async def close(self):
        await self.transport.close()
