"""Unit tests for the fleet's link rules, its mix check and its report.

:func:`repro.net.fleet.check_loss_bounded` refuses a lossy or
reordering link that neither a per-exchange deadline nor a bounded
retry schedule covers, and :func:`repro.net.fleet.link_conditions`
gives every prover its own seeded draws; :class:`~repro.net.fleet.Fleet`
calls both.  A fleet refuses an empty or unknown exchange mix before
any exchange runs, and :class:`~repro.net.fleet.FleetReport` counts a
run with no exchanges as not accepted.
"""

import pytest

from repro.net.fleet import Fleet, FleetReport, check_loss_bounded, link_conditions
from repro.obs.metrics import MetricsRegistry
from repro.net.rpc import RetryPolicy
from repro.net.transport import LinkConditions

LOSSY = LinkConditions(loss=0.2, seed=7)
REORDERING = LinkConditions(reorder=0.3, seed=7)


class TestCheckLossBounded:
    def test_links_that_never_drop_need_no_bound(self):
        for conditions in (None, LinkConditions(),
                           LinkConditions(delay=0.01, jitter=0.02)):
            check_loss_bounded(conditions, deadline=None, retry=None)

    def test_a_deadline_bounds_a_lossy_link(self):
        check_loss_bounded(LOSSY, deadline=0.5, retry=None)
        check_loss_bounded(LOSSY, deadline=0.5,
                           retry=RetryPolicy(max_attempts=None))

    def test_a_bounded_retry_policy_bounds_a_lossy_link(self):
        check_loss_bounded(LOSSY, deadline=None,
                           retry=RetryPolicy(max_attempts=3))

    @pytest.mark.parametrize("conditions", [LOSSY, REORDERING],
                             ids=["loss", "reorder"])
    def test_an_unbounded_lossy_link_is_refused(self, conditions):
        for retry in (None, RetryPolicy(max_attempts=None)):
            with pytest.raises(ValueError) as refused:
                check_loss_bounded(conditions, deadline=None, retry=retry)
            message = str(refused.value)
            assert "deadline" in message and "retry" in message


class TestLinkConditions:
    def test_no_conditions_stay_none(self):
        assert link_conditions(None, 3) is None

    def test_each_prover_gets_its_own_seed(self):
        base = LinkConditions(loss=0.2, delay=0.01, jitter=0.02,
                              reorder=0.1, seed=5)
        assert link_conditions(base, 0) == base
        third = link_conditions(base, 3)
        assert third.seed == 3005
        assert (third.loss, third.delay, third.jitter, third.reorder) == \
            (base.loss, base.delay, base.jitter, base.reorder)
        seeds = {link_conditions(base, index).seed for index in range(64)}
        assert len(seeds) == 64


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
            fleet_size=4, shard_count=2, exchanges=16, accepted=14,
            rejected=1, timed_out=1, retransmits=3, elapsed_seconds=0.5,
            per_kind={"ra": 8, "asap": 8}, pending_challenges_after=1)
        registry = MetricsRegistry(collect=False)
        report.publish(registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges == {
            "fleet.size": 4, "fleet.shard_count": 2, "fleet.exchanges": 16,
            "fleet.accepted": 14, "fleet.rejected": 1, "fleet.timed_out": 1,
            "fleet.retransmits": 3, "fleet.elapsed_seconds": 0.5,
            "fleet.pending_challenges_after": 1,
            "fleet.per_kind.ra": 8, "fleet.per_kind.asap": 8,
        }

    def test_a_run_with_no_exchanges_is_not_all_accepted(self):
        report = Fleet(2).run(exchanges_per_device=0)
        assert report.exchanges == 0
        assert not report.all_accepted()
