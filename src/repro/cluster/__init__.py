"""Fleet control plane: sharding, membership, retries, backpressure.

The :mod:`repro.net` data plane proved one asyncio verifier can
multiplex a fleet of provers; this package is the layer that makes a
*deployment* out of it:

* :class:`~repro.cluster.registry.WorkerRegistry` -- join/leave
  membership with heartbeats and dead-peer eviction for the verifier
  shards;
* :class:`~repro.cluster.hashring.HashRing` +
  :class:`~repro.cluster.shards.ShardedVerifierCluster` -- N
  independent verifier services behind consistent hashing on device
  id, with per-device enrollment, rebalance and heartbeat eviction;
* :class:`~repro.net.rpc.RetryPolicy` (re-exported) -- bounded
  retransmission inside per-exchange deadlines, so impaired links
  degrade throughput instead of burning whole exchanges;
* :class:`~repro.cluster.metrics.ClusterReport` +
  :class:`~repro.cluster.metrics.BackpressureGate` -- aggregate fleet
  metrics (verdict mix, challenge-table occupancy, retry/eviction
  counters, p50/p99 latency) and admission control when provers outrun
  verifiers.

:class:`~repro.cluster.fleet.ClusterFleet` ties it together:
``ClusterFleet(32, shards=2).run()`` drives the same simulated fleet
as :class:`~repro.net.fleet.Fleet`, routed and supervised.  Every shard
is a service on the caller's event loop, reached over loopback pairs,
so a cluster runs in one process like the single-service fleet.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BackpressureGate": "repro.cluster.metrics",
    "ClusterFleet": "repro.cluster.fleet",
    "ClusterReport": "repro.cluster.metrics",
    "HashRing": "repro.cluster.hashring",
    "RetryPolicy": "repro.net.rpc",
    "RpcChannel": "repro.net.rpc",
    "RpcTimeout": "repro.net.rpc",
    "ShardStats": "repro.cluster.metrics",
    "ShardedVerifierCluster": "repro.cluster.shards",
    "VerifierShard": "repro.cluster.shards",
    "WorkerRecord": "repro.cluster.registry",
    "WorkerRegistry": "repro.cluster.registry",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
