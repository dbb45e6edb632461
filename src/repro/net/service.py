"""The fleet attestation service: one async verifier, many provers.

:class:`VerifierService` owns a single :class:`~repro.vrased.protocol.Verifier`
(one key store, one bounded issued-challenge table) plus an APEX and an
ASAP PoX verifier layered over it, and serves attestation traffic over
any number of :class:`~repro.net.transport.LoopbackTransport`
connections concurrently: each connection has one :meth:`serve` loop,
and the loops of thousands of provers interleave on one event loop.
Within a connection, requests are served in arrival order, each one
handled and answered before the next is read: :meth:`handle` is
synchronous, so a task per message would buy no concurrency.  The wire
protocol is three message kinds:

``attest``   ``{"kind": "attest", "seq": n, "device_id": id}``
             -> ``{"kind": "challenge", "seq": n, "challenge": ...,
             "auth_token": ...}`` (or an ``error`` reply for an
             unenrolled device).
``report``   ``{"kind": "report", "seq": n, "protocol": "ra" | "apex" |
             "asap", "report": AttestationReport}`` -> ``{"kind":
             "verdict", "seq": n, "accepted": bool, "reason": str}``.
``stats``    -> ``{"kind": "stats", ...}`` with the service counters
             and the current issued-challenge table size.

Any other kind gets an ``error`` reply.  Enrollment is not a message:
it hands out device keys, so a device is provisioned into the service
in-process, through its ``asap`` or ``apex`` verifier and
``verifier.set_reference`` (see :class:`~repro.net.fleet.Fleet`).

``seq`` is an opaque correlation id echoed verbatim, so a client may
pipeline several requests over one connection (the bundled
:class:`~repro.net.prover.ProverEndpoint` keeps one round trip in
flight at a time and uses ``seq`` to shed the stale reply of a call it
cancelled).

Requests are served **at most once per ``seq``**: :meth:`serve` keeps a
bounded per-connection reply cache, so a request that repeats a
``seq`` already answered gets the *original* reply re-sent instead of
being executed again.  A prover is outside the verifier's trust
boundary, and nothing stops it from sending a request twice: without
the cache, a repeated ``attest`` would issue a second challenge and a
repeated ``report`` would hit "unknown or stale challenge" -- the
challenge having been consumed by the first verdict -- so the cache is
what makes "one execution per ``seq``" hold whatever the prover sends.

The service is only viable on the *fixed* verifier semantics: because a
challenge is consumed on every terminal verdict and expired entries are
pruned, sustained mixed traffic -- including rejected and abandoned
exchanges -- leaves the challenge table empty, not monotonically
growing (``benchmarks/test_bench_fleet.py`` pins exactly that).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, Optional

from repro.apex.pox import PoxVerifier
from repro.core.pox import AsapPoxVerifier
from repro.net.transport import ClosedTransportError, LoopbackTransport
from repro.obs.metrics import register_global_collector
from repro.vrased.protocol import Verifier


#: Protocol names a ``report`` message may carry.
REPORT_PROTOCOLS = ("ra", "apex", "asap")

#: Completed replies remembered per connection, to answer a repeated
#: ``seq`` without executing it again.
REPLY_CACHE_SIZE = 256


class VerifierService:
    """Serves RA and PoX exchanges for a fleet of provers."""

    #: Live instances, for the ``service.*`` telemetry collector: the
    #: per-message handler only bumps the plain ``counters`` dict; sums
    #: over the live services materialise at registry snapshot time.
    _live = weakref.WeakSet()

    def __init__(self, verifier: Optional[Verifier] = None):
        self.verifier = verifier or Verifier()
        #: Both PoX verifiers share ``self.verifier`` -- one key store,
        #: one challenge table -- so RA and PoX traffic interleave
        #: against the same bounded state.
        self.apex = PoxVerifier(self.verifier)
        self.asap = AsapPoxVerifier(self.verifier)
        #: Service counters: challenges issued, verdicts by outcome and
        #: repeated requests answered from the reply cache.
        self.counters: Dict[str, int] = {
            "challenges": 0, "accepted": 0, "rejected": 0, "errors": 0,
            "duplicates": 0,
        }
        VerifierService._live.add(self)

    # ------------------------------------------------------------ queries

    @property
    def pending_challenges(self) -> int:
        """Size of the issued-challenge table right now."""
        return self.verifier.issued_count()

    # ------------------------------------------------------------ handlers

    def handle(self, message) -> dict:
        """Process one request message; return the reply.

        Pure verifier-side computation (no awaits): :meth:`serve` calls
        it inline for each request it reads, and sends what it returns.
        A malformed request gets an ``error`` reply, never an exception.
        """
        seq = message.get("seq")
        kind = message.get("kind")
        try:
            if kind == "attest":
                request = self.verifier.create_request(message["device_id"])
                self.counters["challenges"] += 1
                return {
                    "kind": "challenge", "seq": seq,
                    "challenge": request.challenge,
                    "auth_token": request.auth_token,
                }
            if kind == "report":
                protocol = message.get("protocol", "ra")
                if protocol not in REPORT_PROTOCOLS:
                    raise ValueError("unknown report protocol %r" % protocol)
                report = message["report"]
                if protocol == "ra":
                    result = self.verifier.verify(report)
                elif protocol == "apex":
                    result = self.apex.verify(report)
                else:
                    result = self.asap.verify(report)
                outcome = "accepted" if result.accepted else "rejected"
                self.counters[outcome] += 1
                return {
                    "kind": "verdict", "seq": seq,
                    "accepted": result.accepted, "reason": result.reason,
                }
            if kind == "stats":
                return {
                    "kind": "stats", "seq": seq,
                    "pending_challenges": self.pending_challenges,
                    **self.counters,
                }
            raise ValueError("unknown message kind %r" % kind)
        except Exception as error:  # noqa: BLE001 - folded into the reply
            # One malformed request must not take down the service (or
            # leak a traceback to the prover beyond its message).
            self.counters["errors"] += 1
            return {"kind": "error", "seq": seq, "reason": str(error)}

    # ------------------------------------------------------------ serving

    async def serve(self, transport: LoopbackTransport):
        """Serve one prover connection until either end closes it.

        One loop: read a request, :meth:`handle` it, send the reply,
        read the next.  Slow exchanges on one connection never stall
        another, since each connection has its own loop and the loops
        interleave at their ``await`` points; the requests of one
        connection are answered in the order they arrived.

        Every reply to a request with a ``seq`` goes into a bounded
        per-connection reply cache, and a request whose ``seq`` is
        cached is a duplicate: it is answered with the cached original
        reply and counted in ``duplicates``, never executed again.  A
        request is answered before the next one is read, so every
        duplicate finds its original's reply there (unless
        :data:`REPLY_CACHE_SIZE` newer ones pushed it out): a repeated
        ``report`` cannot burn two challenges or flip a verdict.
        """
        counters = self.counters
        replies = OrderedDict()
        # handle, recv and send are looked up per message, so a wrapper
        # put on their class while the loop runs sees every call.
        while True:
            try:
                message = await transport.recv()
            except ClosedTransportError:
                return
            seq = message.get("seq")
            if seq is None:
                reply = self.handle(message)
            elif seq in replies:
                counters["duplicates"] += 1
                reply = replies[seq]
            else:
                reply = replies[seq] = self.handle(message)
                if len(replies) > REPLY_CACHE_SIZE:
                    replies.popitem(last=False)
            try:
                await transport.send(reply)
            except ClosedTransportError:
                # The prover went away mid-exchange; its challenge (if
                # any) ages out of the bounded table via the TTL.
                pass


@register_global_collector
def _collect_service_metrics(registry):
    """Publish sums over the live services as ``service.*`` gauges.

    ``service.challenges``, ``service.accepted``, ... mirror the
    ``counters`` dict; ``service.pending_challenges`` is the combined
    issued-challenge table occupancy.
    """
    totals: Dict[str, int] = {}
    instances = 0
    pending = 0
    for service in list(VerifierService._live):
        instances += 1
        pending += service.pending_challenges
        for key, value in service.counters.items():
            totals[key] = totals.get(key, 0) + value
    registry.gauge("service.instances").set(instances)
    registry.gauge("service.pending_challenges").set(pending)
    for key, value in totals.items():
        registry.gauge("service." + key).set(value)
