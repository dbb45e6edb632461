"""repro.obs -- the dependency-free telemetry spine.

One :class:`MetricsRegistry` (Counter/Gauge/Histogram, labels,
snapshots, snapshot-time collectors), one :class:`Tracer`
(contextvar-propagated spans), and exporters (JSON-lines sink,
in-memory sink, ``export_telemetry``).

Every layer of the stack publishes here under consistent dotted names:
``engine.*`` and ``cache.*`` via snapshot-time collectors (their
per-step hot paths never touch the registry), ``service.*``,
``campaign.*`` and ``fleet.*`` directly.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Counter": "repro.obs.metrics",
    "DEFAULT_BUCKETS": "repro.obs.metrics",
    "DEFAULT_WINDOW": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "InMemorySink": "repro.obs.export",
    "JsonlSink": "repro.obs.export",
    "MetricsRegistry": "repro.obs.metrics",
    "Span": "repro.obs.trace",
    "TELEMETRY_FILENAME": "repro.obs.export",
    "Tracer": "repro.obs.trace",
    "export_telemetry": "repro.obs.export",
    "get_registry": "repro.obs.metrics",
    "get_tracer": "repro.obs.trace",
    "register_global_collector": "repro.obs.metrics",
    "render_tree": "repro.obs.trace",
    "set_registry": "repro.obs.metrics",
    "set_tracer": "repro.obs.trace",
    "span_tree": "repro.obs.trace",
    "unregister_global_collector": "repro.obs.metrics",
    "use_registry": "repro.obs.metrics",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
