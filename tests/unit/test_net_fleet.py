"""Unit tests for the link rules both fleet harnesses share.

:func:`repro.net.fleet.check_loss_bounded` refuses a lossy or
reordering link that neither a per-exchange deadline nor a bounded
retry schedule covers, and :func:`repro.net.fleet.link_conditions`
gives every prover its own seeded draws.  The single-service
:class:`~repro.net.fleet.Fleet` and the sharded
:class:`~repro.cluster.fleet.ClusterFleet` both call them.
"""

import pytest

from repro.cluster import ClusterFleet
from repro.net.fleet import check_loss_bounded, link_conditions
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

    def test_cluster_fleet_applies_the_same_rule(self):
        with pytest.raises(ValueError, match="deadline"):
            ClusterFleet(2, conditions=REORDERING)
        fleet = ClusterFleet(2, conditions=REORDERING, deadline=0.5)
        assert fleet.conditions is REORDERING


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
