"""Integration tests for the telemetry spine.

The satellites pinned here:

* a campaign's spans form one tree: each ``campaign.scenario`` span is
  a child of its ``campaign.run`` span, and each paper experiment
  traces one campaign of exactly its own scenarios;
* turning ``--telemetry`` on changes nothing about the science: the
  exported campaign rows are byte-identical with and without it;
* the acceptance snapshot: after campaign traffic and a fleet run split
  between two services, **one** registry snapshot carries the engine,
  decode-cache, service, campaign and fleet families under their
  consistent dotted names.
"""

import dataclasses
import json

import pytest

from repro.experiments import runners
from repro.experiments.__main__ import main
from repro.net import Fleet
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_registry,
    set_tracer,
    span_tree,
    use_registry,
)
from repro.sim import CampaignRunner


def ltl_scenarios(count):
    check = next(scenario for scenario in runners.verification_scenarios()
                 if scenario.name == "ltl-vrased-key-no-dma")
    return [dataclasses.replace(check, name="ltl-%d" % index)
            for index in range(count)]


class TestCampaignSpans:
    def test_scenario_spans_are_children_of_their_campaign_span(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with use_registry(MetricsRegistry()):
                first = CampaignRunner().run(ltl_scenarios(3))
                second = CampaignRunner().run(ltl_scenarios(2))
        finally:
            set_tracer(previous)
        assert first.all_ok() and second.all_ok()
        spans = tracer.drain()
        tree = span_tree(spans)
        campaigns = tree[None]
        assert [span.name for span in campaigns] == ["campaign.run"] * 2
        assert [span.attributes["scenarios"] for span in campaigns] == [3, 2]
        for campaign, count in zip(campaigns, (3, 2)):
            children = tree[campaign.span_id]
            assert [span.name for span in children] == ["campaign.scenario"] * count
            assert all(span.trace_id == campaign.trace_id for span in children)
            assert campaign.attributes["aborted"] is False
        # Every span is a campaign or one of its scenarios.
        assert len(spans) == 2 + 3 + 2


    @pytest.mark.parametrize("experiment_id, scenarios", [
        ("E1-E3", runners.fig5_scenarios),
        ("E4-E5", runners.fig6_scenarios),
        ("E6", runners.verification_scenarios),
        ("E7", runners.runtime_scenarios),
        ("E8", runners.busywait_scenarios),
        ("E9", runners.security_scenarios),
        ("FLEET", list),
    ])
    def test_each_experiment_traces_one_campaign_of_its_specs(
            self, experiment_id, scenarios):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with use_registry(MetricsRegistry()) as registry:
                result = runners.EXPERIMENT_RUNNERS[experiment_id](None)
                counters = registry.snapshot()["counters"]
        finally:
            set_tracer(previous)
        assert result.succeeded
        names = [scenario.name for scenario in scenarios()]
        tree = span_tree(tracer.drain())
        campaigns = [span for span in tree.get(None, [])
                     if span.name == "campaign.run"]
        if not names:
            # FLEET drives its harness directly, not through a campaign.
            assert campaigns == []
            assert "campaign.scenarios" not in counters
            return
        assert len(campaigns) == 1
        assert campaigns[0].attributes["scenarios"] == len(names)
        children = tree[campaigns[0].span_id]
        assert [span.attributes["scenario"] for span in children] == names
        assert all(span.attributes["ok"] for span in children)
        assert counters["campaign.scenarios"] == len(names)


class TestTelemetryDifferential:
    def test_telemetry_flag_leaves_campaign_rows_byte_identical(
            self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        instrumented = tmp_path / "instrumented.json"
        assert main(["E7", "--json", str(plain)]) == 0
        assert main(["E7", "--json", str(instrumented),
                     "--telemetry", str(tmp_path / "telem")]) == 0
        capsys.readouterr()

        def rows(path):
            return json.dumps([entry["rows"] for entry in
                               json.loads(path.read_text())],
                              sort_keys=True)

        assert rows(plain) == rows(instrumented)
        assert (tmp_path / "telem" / "telemetry.jsonl").exists()


class TestFleetExport:
    def test_fleet_export_carries_the_sharded_row(self, tmp_path, capsys):
        assert main(["FLEET", "--shards", "3",
                     "--telemetry", str(tmp_path)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in
                   (tmp_path / "telemetry.jsonl").read_text().splitlines()]
        gauges = next(record for record in records
                      if record["record"] == "metrics")["gauges"]
        # The last report published is the sharded row's.
        assert gauges["fleet.shard_count"] == 3
        assert gauges["fleet.exchanges"] == gauges["fleet.accepted"] == 12
        assert gauges["fleet.pending_challenges_after"] == 0


class TestAcceptanceSnapshot:
    def test_one_snapshot_spans_every_layer(self):
        with use_registry(MetricsRegistry()):
            CampaignRunner().run(ltl_scenarios(4))
            # A fleet split between two services: engine, cache and
            # service gauges all publish through their collectors.
            fleet = Fleet(2, shards=2)
            report = fleet.run(exchanges_per_device=2)
            assert report.all_accepted()
            snapshot = get_registry().snapshot()

        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        histograms = snapshot["histograms"]
        # campaign.*: scenario accounting plus the latency histogram.
        assert counters["campaign.scenarios"] == 4
        assert "campaign.failures" not in counters
        assert histograms["campaign.scenario_seconds"]["count"] == 4
        # engine.*: the live interpreter engines, one per prover device.
        assert gauges["engine.interp.instances"] >= 2
        # cache.*: process-wide decode-cache stats.
        assert gauges["cache.entries"] >= 0
        assert "cache.hits" in gauges
        # service.*: the fleet's two verifier services.
        assert gauges["service.instances"] >= 2
        assert gauges["service.challenges"] > 0
        # fleet.*: the folded report.
        assert gauges["fleet.exchanges"] == report.exchanges == 4
        assert gauges["fleet.accepted"] == 4
        assert gauges["fleet.shard_count"] == 2
        assert gauges["fleet.pending_challenges_after"] == 0
