"""The prover-side endpoint of the fleet attestation service.

:class:`ProverEndpoint` wraps one simulated device (plus, for PoX, its
monitor and protocol object) and drives complete exchanges against a
:class:`~repro.net.service.VerifierService` over a
:class:`~repro.net.transport.LoopbackTransport`:

* plain RA: request a challenge, authenticate the request token with
  the device key, run SW-Att over the attested regions, send the
  report, await the verdict;
* PoX: request a challenge, install it in the metadata region, run the
  executable region on the simulated device, attest META/ER/OR (and
  the IVT for ASAP), send the report, await the verdict.

The loopback link loses nothing, so every exchange ends in the
service's verdict or an error reply, returned as an
:class:`ExchangeResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.net.rpc import RpcChannel
from repro.net.transport import LoopbackTransport
from repro.vrased.protocol import AttestationRequest
from repro.vrased.swatt import SwAtt


@dataclass
class ExchangeResult:
    """Outcome of one networked exchange, as seen by the prover."""

    kind: str
    accepted: bool = False
    reason: str = ""
    elapsed_seconds: float = 0.0

    def __bool__(self):
        return self.accepted


class ProverEndpoint:
    """One device's client to the verifier service."""

    #: Requests retransmitted: always 0, since the loopback link loses
    #: no message; ``perfbench``'s ``net.retransmits`` sums it.
    retransmits = 0

    def __init__(self, device_id, device, device_key,
                 transport: LoopbackTransport,
                 attested_regions: Optional[Sequence] = None,
                 protocol=None):
        """``attested_regions`` are what plain RA measures (default: the
        device's program memory); ``protocol`` is the device's
        :class:`~repro.apex.pox.PoxProtocol` (or the ASAP subclass) for
        PoX exchanges -- only its prover-side half is used, the
        verifier side lives behind the transport.
        """
        self.device_id = device_id
        self.device = device
        self.device_key = device_key
        self.transport = transport
        self.swatt = SwAtt(device_key, device_id=device_id)
        self.attested_regions = (
            list(attested_regions) if attested_regions is not None
            else [device.layout.program]
        )
        self.protocol = protocol
        #: One round trip at a time per endpoint (a device attests
        #: serially; fleet concurrency lives across endpoints).
        self.rpc = RpcChannel(transport)

    # ------------------------------------------------------------ exchanges

    async def run_attestation(self) -> ExchangeResult:
        """One complete RA exchange."""
        return await self._timed("ra", self._attestation_flow())

    async def run_pox(self, max_steps: int = 20000) -> ExchangeResult:
        """One complete PoX exchange (APEX or ASAP per the protocol)."""
        if self.protocol is None:
            raise RuntimeError("this endpoint has no PoX protocol attached")
        kind = self.protocol.architecture
        return await self._timed(kind, self._pox_flow(max_steps))

    async def stats(self) -> dict:
        """Fetch the service-side counters."""
        return await self.rpc.call({"kind": "stats"})

    async def close(self):
        await self.transport.close()

    # ------------------------------------------------------------ flows

    async def _timed(self, kind, flow) -> ExchangeResult:
        started = time.perf_counter()
        result = await flow
        result.kind = kind
        result.elapsed_seconds = time.perf_counter() - started
        return result

    async def _request_challenge(self):
        """Shared step 1: obtain and authenticate a challenge."""
        reply = await self.rpc.call({"kind": "attest", "device_id": self.device_id})
        if reply["kind"] != "challenge":
            return None, ExchangeResult(kind="", reason=reply.get("reason", "service error"))
        request = AttestationRequest(challenge=reply["challenge"],
                                     auth_token=reply["auth_token"])
        if not request.verify_token(self.device_key):
            # A forged/garbled request never reaches SW-Att.
            return None, ExchangeResult(kind="", reason="request authentication failed")
        return request.challenge, None

    async def _submit(self, protocol_name, report) -> ExchangeResult:
        """Shared step 3/4: send the report, await the verdict."""
        reply = await self.rpc.call({"kind": "report", "protocol": protocol_name,
                                 "report": report})
        if reply["kind"] != "verdict":
            return ExchangeResult(kind="", reason=reply.get("reason", "service error"))
        return ExchangeResult(kind="", accepted=reply["accepted"],
                              reason=reply["reason"])

    async def _attestation_flow(self) -> ExchangeResult:
        challenge, failure = await self._request_challenge()
        if failure is not None:
            return failure
        report = self.swatt.measure(self.device.memory, challenge,
                                    self.attested_regions)
        return await self._submit("ra", report)

    async def _pox_flow(self, max_steps) -> ExchangeResult:
        challenge, failure = await self._request_challenge()
        if failure is not None:
            return failure
        protocol = self.protocol
        protocol.install_challenge(challenge)
        # The simulated execution is synchronous CPU work; it yields no
        # awaits, so a fleet's executions serialise while its network
        # round trips interleave -- exactly one device's worth of
        # silicon per event loop.
        protocol.call_executable(max_steps=max_steps)
        report = protocol.attest()
        return await self._submit(protocol.architecture, report)
