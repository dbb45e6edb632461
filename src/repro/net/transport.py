"""Message transports for the fleet attestation service.

The service layer (:mod:`repro.net.service`) is written against one
tiny abstraction: a bidirectional, message-oriented, asyncio
:class:`MessageTransport`.  Two implementations ship:

* :func:`loopback_pair` -- an in-process queue pair, for fleets of
  simulated provers multiplexed on one event loop;
* :class:`StreamTransport` -- length-prefixed pickled frames over an
  asyncio TCP stream (:func:`open_tcp_listener` /
  :func:`open_tcp_transport`), which is how TCP fleets and
  process-placement verifier shards talk.

Both accept :class:`LinkConditions` -- injectable loss, latency and
reordering -- so scenarios can exercise the protocol's failure paths
(timeouts, stale challenges, duplicate deliveries) deterministically:
impairments draw from a ``random.Random`` seeded per endpoint, never
from global randomness.

Messages are plain data: dicts of primitives plus the attestation
report and enrollment dataclasses.  The loopback transport passes them
by reference; the stream transport pickles them.  Inbound frames are
decoded with a **restricted unpickler** that only resolves plain
builtins and those payload classes, so a hostile peer cannot smuggle a
code-executing pickle payload through the socket.
"""

from __future__ import annotations

import asyncio
import io
import itertools
import pickle
import random
import struct
from dataclasses import dataclass
from typing import Optional, Tuple


#: Frame header: big-endian payload length.
_HEADER = struct.Struct(">I")

#: Refuse frames beyond this size (a corrupt header otherwise asks
#: ``readexactly`` for gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024


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

        :raises ClosedTransportError: when the peer has closed.
        """
        raise NotImplementedError

    async def close(self):
        """Close this endpoint; the peer's pending ``recv`` fails."""


class _Impairments:
    """Shared loss/latency/reorder logic for both transports."""

    def __init__(self, conditions: Optional[LinkConditions], seed_offset=0):
        self.conditions = conditions or LinkConditions()
        self._rng = random.Random(self.conditions.seed + seed_offset)
        self._held = None

    def admit(self, message):
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

    def latency(self):
        return self.conditions.latency(self._rng)


_CLOSED = object()


class LoopbackTransport(MessageTransport):
    """In-process endpoint: sends into the peer's inbox queue.

    Both endpoints must live on the same event loop; the fleet harness
    multiplexes every prover and the verifier service on one loop, so
    that is the natural habitat.
    """

    def __init__(self, conditions: Optional[LinkConditions] = None,
                 seed_offset=0):
        self._inbox: "asyncio.Queue" = asyncio.Queue()
        self._peer: Optional["LoopbackTransport"] = None
        self._impair = _Impairments(conditions, seed_offset)
        self._closed = False
        self._deliveries = set()

    def _connect(self, peer: "LoopbackTransport"):
        self._peer = peer

    async def send(self, message):
        peer = self._peer
        if self._closed or peer is None or peer._closed:
            raise ClosedTransportError("loopback peer is closed")
        for item in self._impair.admit(message):
            latency = self._impair.latency()
            if latency:
                task = asyncio.ensure_future(self._deliver_later(peer, item, latency))
                self._deliveries.add(task)
                task.add_done_callback(self._deliveries.discard)
            else:
                peer._inbox.put_nowait(item)

    async def _deliver_later(self, peer, item, latency):
        await asyncio.sleep(latency)
        if not peer._closed:
            peer._inbox.put_nowait(item)

    async def recv(self):
        if self._closed:
            raise ClosedTransportError("transport is closed")
        message = await self._inbox.get()
        if message is _CLOSED:
            raise ClosedTransportError("loopback peer closed")
        return message

    async def close(self):
        if self._closed:
            return
        self._closed = True
        for task in list(self._deliveries):
            task.cancel()
        if self._peer is not None and not self._peer._closed:
            # A held-back (reordered) message never flushes after close:
            # the link dropped it, exactly like in-flight loss.
            self._peer._inbox.put_nowait(_CLOSED)


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


# --------------------------------------------------------------------------
# Frame codec
# --------------------------------------------------------------------------

def encode_frame(message) -> bytes:
    """Serialise *message* into one length-prefixed frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


#: Builtins a frame may reference when unpickling.
_SAFE_BUILTINS = frozenset({
    "bool", "bytearray", "bytes", "complex", "dict", "float", "frozenset",
    "int", "list", "range", "set", "slice", "str", "tuple",
})

#: ``(module, qualname)`` pairs of classes allowed in decoded frames.
#: Populated lazily with the wire protocol's own dataclasses; extended
#: via :func:`allow_frame_type` for custom payloads.
_FRAME_TYPE_KEYS = set()
_frame_types_initialised = False


def allow_frame_type(cls):
    """Permit instances of *cls* inside decoded frames.

    The restricted unpickler refuses every global it does not know, so
    a message carrying a custom class must have that class registered
    on the **receiving** side before frames referencing it arrive.
    Returns *cls*, so it works as a decorator.
    """
    _FRAME_TYPE_KEYS.add((cls.__module__, cls.__qualname__))
    return cls


def _ensure_default_frame_types():
    """Register the classes fleet and shard frames carry (idempotent).

    Report frames carry an :class:`~repro.vrased.swatt.AttestationReport`;
    enrollment frames carry a :class:`~repro.net.service.DeviceEnrollment`
    with its PoX geometry and memory regions.  Imported lazily, so the
    transport layer stays importable without the protocol modules.
    """
    global _frame_types_initialised
    if _frame_types_initialised:
        return
    _frame_types_initialised = True
    from repro.apex.regions import (
        ExecutableRegion,
        MetadataRegion,
        OutputRegion,
        PoxConfig,
    )
    from repro.memory.layout import MemoryRegion
    from repro.net.service import DeviceEnrollment
    from repro.vrased.swatt import AttestationReport

    for cls in (
        AttestationReport, DeviceEnrollment, ExecutableRegion, MemoryRegion,
        MetadataRegion, OutputRegion, PoxConfig,
    ):
        allow_frame_type(cls)


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that only resolves an explicit set of data types.

    Frames arrive from network peers, and an unrestricted
    ``pickle.loads`` would hand any peer that can reach the socket
    arbitrary code execution (a crafted ``__reduce__`` payload).  The
    wire protocol only ever carries plain builtins plus the report and
    enrollment dataclasses, so ``find_class`` resolves exactly those --
    a blanket module-prefix allowance would not do: any *function* in
    an allowed module (``write_json``, ``run_scenario``, ...) would be
    a REDUCE gadget.  Resolved names must also actually be classes.
    """

    def find_class(self, module, name):
        if module == "builtins" and name in _SAFE_BUILTINS:
            return super().find_class(module, name)
        _ensure_default_frame_types()
        if (module, name) in _FRAME_TYPE_KEYS:
            value = super().find_class(module, name)
            if isinstance(value, type):
                return value
        raise pickle.UnpicklingError(
            "frame references disallowed global %s.%s "
            "(repro.net.allow_frame_type registers custom payload classes)"
            % (module, name))


def decode_payload(payload: bytes):
    """Inverse of :func:`encode_frame` (sans the header).

    Refuses frames referencing globals outside this package's data
    types; see :class:`_RestrictedUnpickler`.
    """
    return _RestrictedUnpickler(io.BytesIO(payload)).load()


class StreamTransport(MessageTransport):
    """Pickled, length-prefixed messages over an asyncio stream pair."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 conditions: Optional[LinkConditions] = None, seed_offset=0):
        self._reader = reader
        self._writer = writer
        self._impair = _Impairments(conditions, seed_offset)
        self._send_lock = asyncio.Lock()
        self._closed = False
        #: Length of a frame whose header was read but whose payload was
        #: not (a deadline cancellation landed between the two awaits);
        #: the next recv resumes with the payload so the stream never
        #: desynchronises.
        self._pending_length: Optional[int] = None

    async def send(self, message):
        if self._closed:
            raise ClosedTransportError("transport is closed")
        to_deliver = self._impair.admit(message)
        if not to_deliver:
            return
        latency = self._impair.latency()
        if latency:
            await asyncio.sleep(latency)
        async with self._send_lock:
            for item in to_deliver:
                self._writer.write(encode_frame(item))
            try:
                await self._writer.drain()
            except ConnectionError as error:
                raise ClosedTransportError(str(error)) from error

    async def recv(self):
        """Await the next frame.

        Cancellation-safe at the frame boundary: ``readexactly`` never
        consumes partial data when cancelled mid-wait, and a
        cancellation landing *between* the header and the payload reads
        parks the decoded length in ``_pending_length`` so the next
        ``recv`` picks the payload up where this one stopped -- a timed
        out exchange must cost itself, not the whole connection.
        """
        try:
            if self._pending_length is None:
                header = await self._reader.readexactly(_HEADER.size)
                (length,) = _HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    raise ClosedTransportError("oversized frame: %d bytes" % length)
                self._pending_length = length
            payload = await self._reader.readexactly(self._pending_length)
            self._pending_length = None
        except (asyncio.IncompleteReadError, ConnectionError) as error:
            raise ClosedTransportError(str(error)) from error
        return decode_payload(payload)

    async def close(self):
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Event-loop shutdown cancels handlers that are mid-close;
            # the socket is already closing and close() is the task's
            # last act, so absorbing the cancellation here only turns a
            # noisy teardown traceback into a clean exit.
            pass


async def open_tcp_listener(handler, host="127.0.0.1", port=0,
                            conditions: Optional[LinkConditions] = None):
    """Start a TCP server; ``await handler(StreamTransport)`` per client.

    Returns the ``asyncio.Server``; its bound address is
    ``server.sockets[0].getsockname()``.
    """

    connection_count = itertools.count()

    async def on_connect(reader, writer):
        # Distinct seed offsets per connection: impairments must be
        # independent across a fleet's links, or one unlucky loss
        # pattern strikes every prover in lockstep.
        transport = StreamTransport(reader, writer, conditions,
                                    seed_offset=2 * next(connection_count) + 1)
        try:
            await handler(transport)
        finally:
            await transport.close()

    return await asyncio.start_server(on_connect, host=host, port=port)


async def open_tcp_transport(host, port,
                             conditions: Optional[LinkConditions] = None,
                             ) -> StreamTransport:
    """Connect to a listener started by :func:`open_tcp_listener`."""
    reader, writer = await asyncio.open_connection(host, port)
    return StreamTransport(reader, writer, conditions, seed_offset=0)
