"""Shard registry: join, leave, heartbeats, dead-peer eviction.

The sharded verifier cluster registers its shards here; heartbeats are
``ping``/``pong`` round trips.  The registry never does I/O itself --
callers feed it beats and ask it which peers have gone quiet -- so it
is trivially testable with an injected clock and imposes no asyncio
(or any other) dependency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: A peer is dead after this many seconds without a heartbeat, unless
#: the registry was built with an explicit timeout.
DEFAULT_HEARTBEAT_TIMEOUT = 5.0


@dataclass
class WorkerRecord:
    """One registered peer, as the control plane sees it."""

    name: str
    joined_at: float
    last_beat: float
    beats: int = 0
    #: Arbitrary caller data (shard address, placement, ...).
    meta: Dict = field(default_factory=dict)

    def age(self, now: float) -> float:
        """Seconds since the last sign of life."""
        return now - self.last_beat


class WorkerRegistry:
    """Membership + liveness for a set of named peers.

    Any message from a peer counts as a beat; :meth:`dead` names the
    peers past the timeout and :meth:`evict` removes one, counting it
    -- the *caller* then feeds the eviction into its rebalance path,
    because what eviction means (close a socket, move ring ownership)
    is layer-specific.
    """

    def __init__(self, heartbeat_timeout: Optional[float] = DEFAULT_HEARTBEAT_TIMEOUT,
                 clock=time.monotonic):
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive or None, "
                             "got %r" % (heartbeat_timeout,))
        self.heartbeat_timeout = heartbeat_timeout
        self._clock = clock
        self._workers: Dict[str, WorkerRecord] = {}
        self.counters: Dict[str, int] = {
            "joins": 0, "leaves": 0, "beats": 0, "evictions": 0,
        }

    # ------------------------------------------------------------ membership

    def join(self, name: str, meta: Optional[Dict] = None) -> WorkerRecord:
        """Register *name* (re-joining resets its liveness clock)."""
        now = self._clock()
        record = WorkerRecord(name=name, joined_at=now, last_beat=now,
                              meta=dict(meta or {}))
        self._workers[name] = record
        self.counters["joins"] += 1
        return record

    def leave(self, name: str) -> bool:
        """Graceful departure; ``True`` if *name* was registered."""
        if self._workers.pop(name, None) is None:
            return False
        self.counters["leaves"] += 1
        return True

    def evict(self, name: str) -> bool:
        """Forcible removal (dead peer); ``True`` if it was registered."""
        if self._workers.pop(name, None) is None:
            return False
        self.counters["evictions"] += 1
        return True

    # ------------------------------------------------------------ liveness

    def beat(self, name: str) -> bool:
        """Record a sign of life; ``False`` for an unknown (evicted) peer.

        An evicted peer's late heartbeat does **not** resurrect it --
        membership comes back only through an explicit re-join, so the
        rebalance its eviction triggered stays consistent.
        """
        record = self._workers.get(name)
        if record is None:
            return False
        record.last_beat = self._clock()
        record.beats += 1
        self.counters["beats"] += 1
        return True

    def alive(self, name: str) -> bool:
        record = self._workers.get(name)
        if record is None:
            return False
        if self.heartbeat_timeout is None:
            return True
        return record.age(self._clock()) <= self.heartbeat_timeout

    def dead(self) -> List[str]:
        """Names of registered peers past the heartbeat timeout."""
        if self.heartbeat_timeout is None:
            return []
        now = self._clock()
        return [name for name, record in self._workers.items()
                if record.age(now) > self.heartbeat_timeout]

    # ------------------------------------------------------------ queries

    def __len__(self):
        return len(self._workers)

    def __contains__(self, name):
        return name in self._workers

    def get(self, name: str) -> Optional[WorkerRecord]:
        return self._workers.get(name)

    def workers(self) -> List[WorkerRecord]:
        """Current membership, in join order."""
        return list(self._workers.values())

    def names(self) -> List[str]:
        return list(self._workers)
