"""The fleet attestation service.

``repro.net`` scales the one-exchange-at-a-time protocol objects into a
service: an asyncio :class:`VerifierService` multiplexes concurrent RA
and PoX exchanges from any number of provers over in-process loopback
pairs (with injectable loss/latency/reorder via :class:`LinkConditions`),
a :class:`ProverEndpoint` wraps one simulated device, and a
:class:`Fleet` stands up N devices, split between one or more services
(``Fleet(N, shards=k)``), and drives sustained mixed traffic with
per-exchange deadlines, all in one process on one event loop.
See ``README.md`` ("Fleet service") for a worked example.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ClosedTransportError": "repro.net.transport",
    "ExchangeResult": "repro.net.prover",
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
    "VerifierService": "repro.net.service",
    "loopback_pair": "repro.net.transport",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
