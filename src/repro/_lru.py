"""A small bounded mapping with least-recently-used eviction.

The per-process cache of linked firmware images
(:mod:`repro.firmware.testbench`) was a plain dict: correct while every
testbench linked one of a handful of hand-written firmwares, but an
unbounded leak the moment a generated-firmware corpus makes every image
unique.  :class:`LruDict` keeps the setdefault-style idiom that cache
uses and adds a hard capacity with LRU eviction.

Thread-safety: every mutation happens under one lock, so threads can
share a cache without corrupting the eviction order.  Like
``dict.setdefault``, racing builders may construct a value that loses
the insertion race -- the loser is discarded, every caller sees the
single winner.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class LruDict:
    """Bounded mapping: inserts beyond ``capacity`` evict the least
    recently used entry.  ``get``/``setdefault`` refresh recency."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %r" % capacity)
        self.capacity = capacity
        #: How many entries have been evicted over the cache's lifetime.
        self.evictions = 0
        self._data: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return default
            return self._data[key]

    def setdefault(self, key, value):
        """Insert ``key -> value`` unless present; return the winner."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
            self._data[key] = value
            self._evict_over_capacity()
            return value

    def put(self, key, value):
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            self._evict_over_capacity()

    def _evict_over_capacity(self):
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self):
        with self._lock:
            self._data.clear()

    def keys(self):
        with self._lock:
            return list(self._data)

    def __contains__(self, key):
        with self._lock:
            return key in self._data

    def __len__(self):
        return len(self._data)

    def __bool__(self):
        return bool(self._data)
