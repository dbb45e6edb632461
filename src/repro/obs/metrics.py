"""The metrics half of the telemetry spine.

One :class:`MetricsRegistry` holds every instrument the process reports
through -- :class:`Counter` (monotonic), :class:`Gauge` (point-in-time)
and :class:`Histogram` (fixed buckets plus a bounded sample window for
p50/p95/p99) -- under consistent dotted names (``cache.hits``,
``campaign.scenarios``, ``cluster.shard-0.shed``).  Instruments are created
get-or-create by name+labels, are thread-safe, and cost one lock-guarded
integer add when touched, so they are cheap enough for per-scenario and
per-exchange paths.  They are deliberately **not** cheap enough for the
per-step simulation hot path: the step loop and the decode cache
keep their plain attribute counters and publish through *collectors* --
callables the registry runs at :meth:`~MetricsRegistry.snapshot` time --
so reading telemetry costs nothing until someone asks for it
(snapshot-on-read; the ``compare_bench.py --profile sim`` gate pins that
the hot path pays no per-step telemetry cost).

``snapshot()`` exports everything as one plain JSON-representable dict.

Dependency-free by design: this module imports only the stdlib, so every
layer of the stack -- from the CPU engine to the cluster control plane --
can publish into it without import cycles.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

#: Default histogram bucket upper bounds, in seconds -- latency-shaped
#: (the spine's histograms overwhelmingly record exchange/scenario wall
#: clock).  The implicit final bucket is +inf.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0)

#: Default bounded sample-window size for histogram percentiles.
DEFAULT_WINDOW = 4096


def _metric_key(name: str, labels) -> str:
    """The canonical registry key: ``name`` or ``name{k=v,...}``."""
    if not name:
        raise ValueError("metric name must be non-empty")
    if not labels:
        return name
    encoded = ",".join("%s=%s" % (key, labels[key]) for key in sorted(labels))
    return "%s{%s}" % (name, encoded)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up, got %r" % (amount,))
        with self._lock:
            self.value += amount

    def export(self):
        return self.value


class Gauge:
    """A point-in-time value (set, or nudged up and down)."""

    kind = "gauge"

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def set(self, value):
        with self._lock:
            self.value = value

    def inc(self, amount=1):
        with self._lock:
            self.value += amount

    def dec(self, amount=1):
        with self._lock:
            self.value -= amount

    def export(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram plus a bounded window for percentiles.

    ``record()`` lands each sample in a cumulative-style bucket (first
    upper bound >= value; the final implicit bucket is +inf) and in a
    rolling window of the most recent ``window`` samples, so long soak
    runs get rolling p50/p95/p99 instead of unbounded memory growth --
    this is the spine's replacement for the old cluster
    ``LatencyRecorder``, same percentile semantics, plus buckets.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS,
                 window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1, got %r" % (window,))
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self.bounds = bounds
        self.window = window
        #: One count per bound, plus the trailing +inf bucket.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self._samples: List[float] = []
        self.count = 0
        self.sum = 0.0

    def record(self, value):
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            index = len(self.bounds)
            for position, bound in enumerate(self.bounds):
                if value <= bound:
                    index = position
                    break
            self.bucket_counts[index] += 1
            self._samples.append(value)
            if len(self._samples) > self.window:
                del self._samples[: len(self._samples) - self.window]

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the retained window (0 if empty)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1], got %r" % (fraction,))
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        index = min(len(ordered) - 1,
                    max(0, round(fraction * (len(ordered) - 1))))
        return ordered[index]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def export(self):
        with self._lock:
            return {
                "count": self.count,
                "sum": self.sum,
                "bounds": list(self.bounds),
                "bucket_counts": list(self.bucket_counts),
                "window": self.window,
                "samples": list(self._samples),
                "p50": self._percentile_locked(0.50),
                "p95": self._percentile_locked(0.95),
                "p99": self._percentile_locked(0.99),
            }

    def _percentile_locked(self, fraction):
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1,
                    max(0, round(fraction * (len(ordered) - 1))))
        return ordered[index]



#: Collectors run for *every* registry snapshot (unless the registry
#: opted out): each subsystem that keeps hot-path counters off the
#: registry appends one callable here at import time, and snapshot-time
#: is when those counters become metrics.
_GLOBAL_COLLECTORS: List[Callable] = []


def register_global_collector(collector: Callable) -> Callable:
    """Register ``collector(registry)`` to run on every snapshot.

    Idempotent per callable object; returns it, so it stacks as a
    decorator.  This is the snapshot-on-read hook: the execution
    engines, the decode cache and the verifier service publish through
    collectors so their per-step/per-message paths never touch a lock
    they don't already hold.
    """
    if collector not in _GLOBAL_COLLECTORS:
        _GLOBAL_COLLECTORS.append(collector)
    return collector


def unregister_global_collector(collector: Callable):
    """Remove a previously registered global collector (missing ok)."""
    try:
        _GLOBAL_COLLECTORS.remove(collector)
    except ValueError:
        pass


class MetricsRegistry:
    """One process-wide family of named instruments.

    Instruments are get-or-create by ``(name, labels)``; asking for an
    existing name with a different instrument type raises.  ``labels``
    are folded into the registry key (``name{k=v,...}``) so exports stay
    plain flat dicts.

    ``collect=False`` builds a registry that ignores the global
    collectors -- snapshots then contain exactly what was explicitly
    recorded, which is what a caller wanting a hermetic registry needs.
    """

    def __init__(self, collect: bool = True):
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}
        self._collectors: List[Callable] = []
        self.collect = collect

    # ------------------------------------------------------------ instruments

    def _instrument(self, cls, name, labels, factory=None):
        key = _metric_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = (factory or cls)()
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    "metric %r is a %s, not a %s"
                    % (key, type(metric).__name__, cls.__name__))
            return metric

    def counter(self, name: str, labels: Optional[Dict[str, object]] = None
                ) -> Counter:
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, labels: Optional[Dict[str, object]] = None
              ) -> Gauge:
        return self._instrument(Gauge, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Dict[str, object]] = None,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  window: int = DEFAULT_WINDOW) -> Histogram:
        return self._instrument(
            Histogram, name, labels,
            factory=lambda: Histogram(buckets=buckets, window=window))

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # ------------------------------------------------------------ collectors

    def add_collector(self, collector: Callable) -> Callable:
        """Register ``collector(registry)`` on *this* registry only."""
        if collector not in self._collectors:
            self._collectors.append(collector)
        return collector

    def remove_collector(self, collector: Callable):
        try:
            self._collectors.remove(collector)
        except ValueError:
            pass

    def _run_collectors(self):
        collectors = (list(_GLOBAL_COLLECTORS) if self.collect else []) \
            + list(self._collectors)
        for collector in collectors:
            collector(self)

    # ------------------------------------------------------------ export

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Everything, as one plain JSON-representable dict.

        Shape: ``{"counters": {key: int}, "gauges": {key: value},
        "histograms": {key: {count, sum, bounds, bucket_counts, window,
        samples, p50, p95, p99}}}``.  Collectors run first (outside the
        registry lock -- they create/set instruments themselves), so
        hot-path subsystems are up to date exactly as of this call.
        """
        self._run_collectors()
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            items = list(self._metrics.items())
        for key, metric in items:
            out[metric.kind + "s"][key] = metric.export()
        return out

    def reset(self):
        """Drop every instrument (collectors stay registered)."""
        with self._lock:
            self._metrics.clear()


# --------------------------------------------------------------------------
# The process default
# --------------------------------------------------------------------------

_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every layer publishes into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


class use_registry:
    """Context manager: temporarily swap the default registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info):
        set_registry(self._previous)
        return False
