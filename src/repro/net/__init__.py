"""The fleet attestation service.

``repro.net`` scales the one-exchange-at-a-time protocol objects into a
service: an asyncio :class:`VerifierService` multiplexes concurrent RA
and PoX exchanges from any number of provers over a pluggable message
transport (in-process loopback or TCP, both with injectable
loss/latency/reorder via :class:`LinkConditions`), a
:class:`ProverEndpoint` wraps one simulated device, and a
:class:`Fleet` stands up N devices and drives sustained mixed traffic
with per-exchange deadlines.  See ``README.md`` ("Fleet service") for
a worked example.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ClosedTransportError": "repro.net.transport",
    "DeviceEnrollment": "repro.net.service",
    "ExchangeResult": "repro.net.prover",
    "allow_frame_type": "repro.net.transport",
    "build_prover_bench": "repro.net.fleet",
    "Fleet": "repro.net.fleet",
    "FleetReport": "repro.net.fleet",
    "LinkConditions": "repro.net.transport",
    "LoopbackTransport": "repro.net.transport",
    "MessageTransport": "repro.net.transport",
    "ProverEndpoint": "repro.net.prover",
    "RetryPolicy": "repro.net.rpc",
    "RpcChannel": "repro.net.rpc",
    "RpcTimeout": "repro.net.rpc",
    "StreamTransport": "repro.net.transport",
    "VerifierService": "repro.net.service",
    "loopback_pair": "repro.net.transport",
    "open_tcp_listener": "repro.net.transport",
    "open_tcp_transport": "repro.net.transport",
    "provision_enrollment": "repro.net.service",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
