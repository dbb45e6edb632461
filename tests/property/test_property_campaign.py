"""Property-based tests for the serial campaign runner.

For any sequence drawn from a pool of passing, mismatching and
erroring specs (repeats included):

* **Order and isolation**: results come back in spec order, and each
  equals what its spec produces run alone -- whatever ran before it in
  the same process.
* **Fail-fast is a prefix**: a ``fail_fast`` campaign returns the plain
  campaign's results up to and including the first failure, and
  ``on_result`` sees exactly those.
* **Accounting**: the ``campaign.*`` metrics count every result, every
  failure and every abort.
"""

from hypothesis import given, settings, strategies as st

from repro.experiments import runners
from repro.obs import MetricsRegistry, use_registry
from repro.sim import CampaignRunner, FirmwareRef, ScenarioSpec, run_scenario

#: Cheap specs of every outcome: passing pox, job and ltl scenarios, an
#: expectation mismatch, and two that raise inside the scenario body.
POOL = (
    list(runners.fig5_scenarios())
    + list(runners.fig6_scenarios())
    + list(runners.verification_scenarios())[:3]
    + [
        ScenarioSpec(name="ltl-mismatch", kind="ltl",
                     ltl_property="vrased-key-no-dma", expect={"holds": False}),
        ScenarioSpec(name="broken-firmware",
                     firmware=FirmwareRef.of("no-such-firmware")),
        ScenarioSpec(name="unknown-property", kind="ltl",
                     ltl_property="no-such-property"),
    ]
)


def outcome_of(result):
    """What a scenario produced, without its wall-clock time."""
    return (result.name, result.row, result.expected, result.ok,
            result.error is None)


#: Each pool spec's outcome when run on its own.
ALONE = {spec.name: outcome_of(run_scenario(spec)) for spec in POOL}
FAILING = {name for name, outcome in ALONE.items() if not outcome[3]}

campaigns = st.lists(st.sampled_from(POOL), max_size=8)


def test_pool_holds_passing_and_failing_specs():
    assert FAILING == {"ltl-mismatch", "broken-firmware", "unknown-property"}
    assert len(ALONE) == len(POOL)


@settings(max_examples=40, deadline=None)
@given(campaigns)
def test_results_follow_spec_order_and_match_each_spec_alone(specs):
    outcome = CampaignRunner().run(specs)
    assert [outcome_of(result) for result in outcome] == \
        [ALONE[spec.name] for spec in specs]
    assert not outcome.aborted
    assert [result.name for result in outcome.failures()] == \
        [spec.name for spec in specs if spec.name in FAILING]
    assert outcome.all_ok() == (not outcome.failures())


@settings(max_examples=40, deadline=None)
@given(campaigns)
def test_fail_fast_returns_the_prefix_through_the_first_failure(specs):
    seen = []
    stopped = CampaignRunner(fail_fast=True, on_result=seen.append).run(specs)
    names = [spec.name for spec in specs]
    failing = [index for index, name in enumerate(names) if name in FAILING]
    end = failing[0] + 1 if failing else len(names)
    assert [result.name for result in stopped] == names[:end]
    assert seen == stopped.results
    assert stopped.aborted == bool(failing)
    assert [outcome_of(result) for result in stopped] == \
        [ALONE[name] for name in names[:end]]


@settings(max_examples=40, deadline=None)
@given(campaigns, st.booleans())
def test_campaign_metrics_account_for_every_result(specs, fail_fast):
    with use_registry(MetricsRegistry()) as registry:
        outcome = CampaignRunner(fail_fast=fail_fast).run(specs)
        snapshot = registry.snapshot()
    counters = snapshot["counters"]
    failures = len(outcome.failures())
    assert counters.get("campaign.scenarios", 0) == len(outcome)
    assert counters.get("campaign.failures", 0) == failures
    assert counters.get("campaign.aborted", 0) == int(outcome.aborted)
    histogram = snapshot["histograms"].get("campaign.scenario_seconds")
    assert (histogram["count"] if histogram else 0) == len(outcome)
