"""Unit tests for the fleet's mix check and its report.

A :class:`~repro.net.fleet.Fleet` refuses an empty or unknown exchange
mix before any exchange runs, and :class:`~repro.net.fleet.FleetReport`
counts a run with no exchanges as not accepted.
"""

import pytest

from repro.net.fleet import Fleet, FleetReport
from repro.obs.metrics import MetricsRegistry


class TestMixCheck:
    def test_an_empty_mix_is_refused(self):
        with pytest.raises(ValueError, match="mix"):
            Fleet(2).run(mix=())

    @pytest.mark.parametrize("mix, exchanges_per_device, unknown", [
        (("ra", "bogus"), 1, "bogus"),
        (("ra", "bogus"), 2, "bogus"),
        (("pox", "RA"), 1, "RA"),
        ("ra", 1, "r"),
    ], ids=["unreached", "after-an-exchange", "case-matters", "a-string"])
    def test_an_unknown_kind_is_refused_before_any_exchange(
            self, mix, exchanges_per_device, unknown):
        fleet = Fleet(1)
        with pytest.raises(ValueError, match="'%s'" % unknown):
            fleet.run(exchanges_per_device=exchanges_per_device, mix=mix)
        # Refused up front: no device built, no challenge issued.
        assert fleet.benches == []
        assert fleet.services[0].counters["challenges"] == 0


    @pytest.mark.parametrize("mix, per_device, per_kind", [
        (("ra", "pox"), 3, {"ra": 4, "asap": 2}),
        (("pox", "ra", "ra"), 3, {"asap": 2, "ra": 4}),
        (("pox",), 2, {"asap": 4}),
    ], ids=["default", "pox-first", "pox-only"])
    def test_each_prover_cycles_through_the_mix(self, mix, per_device,
                                                 per_kind):
        report = Fleet(2).run(exchanges_per_device=per_device, mix=mix)
        assert report.all_accepted()
        assert report.per_kind == per_kind


class TestFleetReport:
    def test_exchange_rate(self):
        report = FleetReport(fleet_size=1, exchanges=10, elapsed_seconds=2.0)
        assert report.exchanges_per_second == 5.0
        report.elapsed_seconds = 0.0
        assert report.exchanges_per_second == 0.0

    def test_all_accepted_requires_traffic(self):
        report = FleetReport(fleet_size=4, shard_count=2)
        assert not report.all_accepted()  # zero exchanges is not success
        report.exchanges = report.accepted = 8
        assert report.all_accepted()
        report.rejected = 1
        report.exchanges = 9
        assert not report.all_accepted()

    def test_publish_projects_the_report_into_fleet_gauges(self):
        report = FleetReport(
            fleet_size=4, shard_count=2, exchanges=16, accepted=15,
            rejected=1, elapsed_seconds=0.5,
            per_kind={"ra": 8, "asap": 8}, pending_challenges_after=1)
        registry = MetricsRegistry(collect=False)
        report.publish(registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges == {
            "fleet.size": 4, "fleet.shard_count": 2, "fleet.exchanges": 16,
            "fleet.accepted": 15, "fleet.rejected": 1,
            "fleet.elapsed_seconds": 0.5,
            "fleet.pending_challenges_after": 1,
            "fleet.per_kind.ra": 8, "fleet.per_kind.asap": 8,
        }

    def test_a_run_with_no_exchanges_is_not_all_accepted(self):
        report = Fleet(2).run(exchanges_per_device=0)
        assert report.exchanges == 0
        assert not report.all_accepted()
