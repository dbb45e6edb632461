"""Unit tests for the telemetry spine (:mod:`repro.obs`).

What is pinned here:

* instruments are get-or-create, label-keyed, and survive a
  many-threads-many-counters torture without losing increments;
* the histogram keeps the old ``LatencyRecorder`` percentile semantics
  (nearest rank over a bounded window) while adding buckets;
* spans nest through the contextvar, survive the wire encoding, and
  reassemble into one parent->children tree;
* the sinks write the exact record shapes ``--telemetry`` consumers
  parse.
"""

import json
import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    Span,
    Tracer,
    export_telemetry,
    get_registry,
    render_tree,
    set_registry,
    span_tree,
    use_registry,
)


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.export() == 5
        with pytest.raises(ValueError, match="up"):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.export() == 13

    def test_histogram_buckets_and_percentiles(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            histogram.record(value)
        # One <=0.1, two <=1.0, one in the implicit +inf bucket.
        assert histogram.bucket_counts == [1, 2, 1]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(6.25)
        assert histogram.p50 == pytest.approx(0.7)

    def test_histogram_window_is_bounded(self):
        histogram = Histogram(window=8)
        for value in range(100):
            histogram.record(float(value))
        assert histogram.count == 100
        assert histogram.percentile(0.0) == 92.0
        with pytest.raises(ValueError, match="window"):
            Histogram(window=0)

    def test_histogram_percentiles_over_known_samples(self):
        histogram = Histogram()
        for value in range(1, 101):  # 1..100
            histogram.record(float(value))
        assert histogram.p50 == pytest.approx(50.0, abs=1.0)
        assert histogram.p99 == pytest.approx(99.0, abs=1.0)
        assert histogram.count == 100

    def test_empty_histogram_answers_zero(self):
        assert Histogram().p50 == 0.0
        assert Histogram().p99 == 0.0

    def test_histogram_bad_fraction_rejected(self):
        histogram = Histogram()
        histogram.record(1.0)
        with pytest.raises(ValueError, match="fraction"):
            histogram.percentile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry(collect=False)
        assert registry.counter("store.hits") is registry.counter("store.hits")
        assert registry.counter("a", {"k": 1}) is not registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry(collect=False)
        registry.counter("store.hits")
        with pytest.raises(TypeError, match="Counter"):
            registry.gauge("store.hits")

    def test_labels_fold_into_the_key(self):
        registry = MetricsRegistry(collect=False)
        registry.counter("rpc.calls", {"worker": "w1", "kind": "ra"}).inc()
        assert "rpc.calls{kind=ra,worker=w1}" in registry.names()

    def test_snapshot_shape_is_json_representable(self):
        registry = MetricsRegistry(collect=False)
        registry.counter("c").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h").record(0.2)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot, allow_nan=False)) == snapshot
        assert snapshot["counters"]["c"] == 3
        assert snapshot["gauges"]["g"] == 7
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_torture_many_threads_many_counters(self):
        registry = MetricsRegistry(collect=False)
        threads, increments, names = 8, 2000, ("a", "b", "c", "d")

        def hammer():
            for index in range(increments):
                name = names[index % len(names)]
                registry.counter(name).inc()
                registry.gauge("g." + name).inc()
                registry.histogram("h." + name).record(index * 1e-4)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        snapshot = registry.snapshot()
        per_name = threads * increments // len(names)
        for name in names:
            assert snapshot["counters"][name] == per_name
            assert snapshot["gauges"]["g." + name] == per_name
            assert snapshot["histograms"]["h." + name]["count"] == per_name

    def test_instance_collectors_run_at_snapshot_time(self):
        registry = MetricsRegistry(collect=False)
        calls = []

        @registry.add_collector
        def publish(target):
            calls.append(1)
            target.gauge("collected").set(len(calls))

        assert registry.snapshot()["gauges"]["collected"] == 1
        assert registry.snapshot()["gauges"]["collected"] == 2
        registry.remove_collector(publish)
        registry.snapshot()
        assert len(calls) == 2

    def test_hermetic_registry_ignores_global_collectors(self):
        # collect=False snapshots contain exactly what was recorded --
        # none of the engine./cache./service. collector families.
        registry = MetricsRegistry(collect=False)
        registry.counter("only.this").inc()
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["only.this"]
        assert snapshot["gauges"] == {}

    def test_use_registry_swaps_the_default(self):
        original = get_registry()
        hermetic = MetricsRegistry(collect=False)
        with use_registry(hermetic) as active:
            assert active is hermetic
            assert get_registry() is hermetic
            get_registry().counter("scoped").inc()
        assert get_registry() is original
        assert hermetic.snapshot()["counters"]["scoped"] == 1

    def test_default_registry_collects_engine_and_cache_families(self):
        # Importing the stack registers the global collectors; any
        # default-flavoured registry snapshot then carries the
        # snapshot-on-read families.
        import repro.cpu.engine  # noqa: F401  (registers collectors)

        fresh = MetricsRegistry()
        names = set()
        snapshot = fresh.snapshot()
        for family in snapshot.values():
            names.update(family)
        assert any(name.startswith("cache.") for name in names)


class TestTracer:
    def test_nesting_through_the_contextvar(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = tracer.finished_spans()
        assert [span.name for span in spans] == ["inner", "outer"]
        assert all(span.finished for span in spans)

    def test_synthetic_add_uses_measured_duration(self):
        tracer = Tracer()
        with tracer.span("campaign.run") as root:
            span = tracer.add("campaign.scenario", 0.25,
                              attributes={"scenario": "s1"})
        assert span.duration == 0.25
        assert span.parent_id == root.span_id
        assert span.trace_id == root.trace_id

    def test_explicit_parent_overrides_the_ambient_context(self):
        tracer = Tracer()
        root = tracer.begin("root")
        tracer.finish(root)
        with tracer.span("unrelated"):
            span = tracer.add("child", 0.1,
                              parent=(root.trace_id, root.span_id))
        assert span.parent_id == root.span_id
        assert span.trace_id == root.trace_id

    def test_retention_limit_counts_drops(self):
        tracer = Tracer(limit=2)
        for index in range(5):
            tracer.add("span-%d" % index, 0.0)
        assert len(tracer.finished_spans()) == 2
        assert tracer.dropped == 3
        tracer.reset()
        assert tracer.finished_spans() == [] and tracer.dropped == 0

    def test_tree_reassembly_and_orphans(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child-b"):
                pass
            with tracer.span("child-a"):
                pass
        orphan = Span("orphan", trace_id="t", span_id="o",
                      parent_id="elsewhere", start_time=0.0, duration=0.0)
        spans = tracer.drain() + [orphan]
        tree = span_tree(spans)
        roots = {span.name for span in tree[None]}
        assert roots == {"root", "orphan"}
        root = next(span for span in tree[None] if span.name == "root")
        children = [span.name for span in tree[root.span_id]]
        # Children sort by start time, not finish order.
        assert children == ["child-b", "child-a"]
        rendering = render_tree(spans)
        assert "root" in rendering and "  child-b" in rendering


class TestSinks:
    def _sample(self, tracer):
        with tracer.span("root"):
            pass
        return tracer.drain()

    def test_in_memory_sink_records(self):
        registry = MetricsRegistry(collect=False)
        registry.counter("c").inc()
        sink = InMemorySink()
        sink.write_metrics(registry.snapshot())
        sink.write_spans(self._sample(Tracer()))
        assert len(sink.metrics_records()) == 1
        assert sink.metrics_records()[0]["counters"] == {"c": 1}
        (span_record,) = sink.span_records()
        assert span_record["name"] == "root"
        assert span_record["parent_id"] is None

    def test_jsonl_sink_appends_parseable_lines(self, tmp_path):
        path = tmp_path / "nested" / "telemetry.jsonl"
        sink = JsonlSink(path)
        registry = MetricsRegistry(collect=False)
        registry.gauge("g").set(1)
        sink.write_metrics(registry.snapshot())
        sink.write_spans(self._sample(Tracer()))
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [record["record"] for record in records] == ["metrics", "span"]

    def test_export_telemetry_drains_the_tracer(self, tmp_path):
        registry = MetricsRegistry(collect=False)
        registry.counter("campaign.scenarios").inc(2)
        tracer = Tracer()
        self._sample(tracer)
        with tracer.span("kept"):
            pass
        path = export_telemetry(tmp_path, registry=registry, tracer=tracer)
        assert path.endswith("telemetry.jsonl")
        records = [json.loads(line) for line in
                   open(path, encoding="utf-8")]
        kinds = [record["record"] for record in records]
        assert kinds.count("metrics") == 1 and kinds.count("span") == 1
        assert tracer.finished_spans() == []
        # A second export appends a fresh snapshot, no duplicate spans.
        export_telemetry(tmp_path, registry=registry, tracer=tracer)
        records = [json.loads(line) for line in
                   open(path, encoding="utf-8")]
        assert [r["record"] for r in records] == ["metrics", "span", "metrics"]
