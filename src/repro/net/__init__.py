"""The fleet attestation service.

``repro.net`` scales the one-exchange-at-a-time protocol objects into a
service: an asyncio :class:`VerifierService` multiplexes concurrent RA
and PoX exchanges from any number of provers over lossless in-process
loopback pairs, a :class:`ProverEndpoint` wraps one simulated device,
and a :class:`Fleet` stands up N devices, split between one or more
services (``Fleet(N, shards=k)``), and drives sustained mixed traffic,
all in one process on one event loop.
See ``README.md`` ("Fleet service") for a worked example.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ClosedTransportError": "repro.net.transport",
    "ExchangeResult": "repro.net.prover",
    "build_prover_bench": "repro.net.fleet",
    "Fleet": "repro.net.fleet",
    "FleetReport": "repro.net.fleet",
    "LoopbackTransport": "repro.net.transport",
    "ProverEndpoint": "repro.net.prover",
    "RpcChannel": "repro.net.rpc",
    "VerifierService": "repro.net.service",
    "loopback_pair": "repro.net.transport",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
