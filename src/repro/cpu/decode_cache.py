"""Decoded-instruction cache for the simulation fast path.

Decoding an instruction dominates the cost of a step that has to do it:
each fetch peeks three words, re-parses the operand encodings, renders
the assembly text for the signal bundle and compiles the instruction
into its closure (:mod:`repro.cpu.compiler`).  Firmware spends nearly
all of its time in loops, so the same handful of addresses are decoded
millions of times.

:class:`DecodeCache` memoises the result of a fetch keyed by the program
counter: the entry is ``(execute, size, text, cycles)`` -- the compiled
closure, the instruction's size in bytes, its rendered text and its
cycle count.  :meth:`repro.cpu.core.CPU.step` calls ``execute()`` of
the entry at the PC, so a hit runs no decode and no dispatch.  The
entry is a pure function of the instruction bytes and their address,
so a cache hit produces a signal bundle byte-for-byte identical to a
cold decode.  The closures act on the CPU that compiled them: a cache
serves one CPU.

Correctness under self-modifying code
-------------------------------------

The attack gallery deliberately rewrites code (ER patching, IVT
tampering, DMA into the executable region), so stale entries must never
survive a write.  Every mutation path of :class:`~repro.memory.memory.Memory`
-- CPU/DMA bus writes *and* load-time programming (``load_bytes``,
``load_word``, ``fill``) -- reports the touched range through the
memory's write-listener hook, and :meth:`DecodeCache.invalidate_range`
drops every entry whose encoded bytes could overlap it.  An MSP430
instruction occupies at most three words, so a write to address ``A``
can only affect instructions starting in ``[A - 4, A + length - 1]``
(even addresses).  Writes outside the span of cached program counters
(e.g. peripheral register updates every tick) are rejected with two
comparisons.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Optional, Tuple

from repro.obs.metrics import register_global_collector

#: Maximum encoded instruction size in bytes (three 16-bit words).
MAX_INSTRUCTION_BYTES = 6

#: Invalidations covering more than this many bytes flush the whole
#: cache instead of probing per-address (reflashing a firmware image
#: would otherwise probe thousands of addresses).
FULL_FLUSH_THRESHOLD = 64


class DecodeCache:
    """Memoises ``(execute, size, text, cycles)`` per fetch address."""

    #: Live instances, for process-wide stats snapshots (benchmarks).
    _live = weakref.WeakSet()

    def __init__(self):
        #: pc -> (execute, size_bytes, rendered_text, cycle_count)
        self._entries: Dict[int, Tuple[Callable, int, str, int]] = {}
        # Span of cached fetch addresses, for cheap invalidation rejects.
        self._min_pc = 0x10000
        self._max_pc = -1
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        DecodeCache._live.add(self)

    def __len__(self):
        return len(self._entries)

    def lookup(self, pc) -> Optional[Tuple[Callable, int, str, int]]:
        """Return the cached fetch result for *pc*, or ``None``."""
        entry = self._entries.get(pc)
        if entry is not None:
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def store(self, pc, execute, size, text, cycles):
        """Cache the compiled fetch result for *pc*."""
        self._entries[pc] = (execute, size, text, cycles)
        if pc < self._min_pc:
            self._min_pc = pc
        if pc > self._max_pc:
            self._max_pc = pc

    # ------------------------------------------------------------ invalidation

    def invalidate_range(self, address, length=1):
        """Drop every entry whose encoded bytes may overlap the write.

        Registered as a memory write listener; called for CPU and DMA bus
        writes as well as load-time programming.
        """
        if not self._entries:
            return
        # The earliest instruction able to span into the written range
        # starts MAX_INSTRUCTION_BYTES - 2 bytes before it (even address).
        start = address - (MAX_INSTRUCTION_BYTES - 2)
        if start < 0:
            # Fetch wraps mod 64K, so an instruction cached near 0xFFFF
            # can span into a write at the bottom of the address space.
            entries = self._entries
            for pc in range((start + 0x10000) & 0xFFFE, 0x10000, 2):
                if entries.pop(pc, None) is not None:
                    self.invalidations += 1
            start = 0
        start &= 0xFFFE
        end = address + length  # exclusive
        if end <= self._min_pc or start > self._max_pc:
            return
        if length > FULL_FLUSH_THRESHOLD:
            self.invalidations += len(self._entries)
            self.clear()
            return
        entries = self._entries
        for pc in range(start, end, 2):
            if entries.pop(pc, None) is not None:
                self.invalidations += 1
        if not entries:
            self._min_pc = 0x10000
            self._max_pc = -1

    def clear(self):
        """Drop every cached entry (counters are preserved)."""
        self._entries.clear()
        self._min_pc = 0x10000
        self._max_pc = -1

    # ------------------------------------------------------------ statistics

    def stats(self):
        """Return a dict of hit/miss/invalidation counters."""
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    @classmethod
    def aggregate_stats(cls):
        """Sum :meth:`stats` over every live cache in the process.

        A snapshot for benchmark rows: devices that have been garbage
        collected no longer contribute, so the numbers describe the
        caches alive at call time, not the full process history.
        """
        totals = {"caches": 0, "entries": 0, "hits": 0, "misses": 0,
                  "invalidations": 0}
        for cache in list(cls._live):
            totals["caches"] += 1
            totals["entries"] += len(cache._entries)
            totals["hits"] += cache.hits
            totals["misses"] += cache.misses
            totals["invalidations"] += cache.invalidations
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = (totals["hits"] / lookups) if lookups else 0.0
        return totals


@register_global_collector
def _collect_cache_metrics(registry):
    """Publish :meth:`DecodeCache.aggregate_stats` as ``cache.*`` gauges.

    Snapshot-on-read: the per-fetch hot path only ever touches the plain
    integer attributes above; these gauges materialise when a registry
    snapshot asks for them.
    """
    for key, value in DecodeCache.aggregate_stats().items():
        registry.gauge("cache." + key).set(value)
