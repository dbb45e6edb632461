"""Property-based tests for the serial campaign runner.

For any sequence drawn from a pool of passing, mismatching and raising
scenarios (repeats included):

* **Order and isolation**: results come back in list order, and each
  equals what its scenario produces run alone -- whatever ran before it
  in the same process.
* **Fail-fast is a prefix**: a ``fail_fast`` campaign returns the plain
  campaign's results up to and including the first failure, and
  ``on_result`` sees exactly those.
* **Accounting**: the ``campaign.*`` metrics count every result, every
  failure and every abort.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.experiments import runners
from repro.firmware.blinker import blinker_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.ltl.properties import MODEL_BUILDERS
from repro.obs import MetricsRegistry, use_registry
from repro.sim import CampaignRunner, Scenario, run_scenario

_VERIFICATION = runners.verification_scenarios()
_KEY_NO_DMA = next(scenario for scenario in _VERIFICATION
                   if scenario.name == "ltl-vrased-key-no-dma")

#: Cheap scenarios of every outcome: passing testbench, cost-report and
#: model-check scenarios, an expectation mismatch, and two bodies that
#: raise inside their workload.
POOL = (
    list(runners.fig5_scenarios())
    + list(runners.fig6_scenarios())
    + _VERIFICATION[:3]
    + [
        dataclasses.replace(_KEY_NO_DMA, name="ltl-mismatch",
                            expect={"holds": False}),
        Scenario("bad-architecture", lambda: PoxTestbench(
            blinker_firmware(), TestbenchConfig(architecture="riscv"))),
        Scenario("unknown-model", lambda: MODEL_BUILDERS["no-such-model"]()),
    ]
)


def outcome_of(result):
    """What a scenario produced, without its wall-clock time."""
    return (result.name, result.row, result.expected, result.ok,
            result.error is None)


#: Each pool scenario's outcome when run on its own.
ALONE = {scenario.name: outcome_of(run_scenario(scenario)) for scenario in POOL}
FAILING = {name for name, outcome in ALONE.items() if not outcome[3]}

campaigns = st.lists(st.sampled_from(POOL), max_size=8)


def test_pool_holds_passing_and_failing_specs():
    assert FAILING == {"ltl-mismatch", "bad-architecture", "unknown-model"}
    assert len(ALONE) == len(POOL)


@settings(max_examples=40, deadline=None)
@given(campaigns)
def test_results_follow_spec_order_and_match_each_spec_alone(scenarios):
    outcome = CampaignRunner().run(scenarios)
    assert [outcome_of(result) for result in outcome] == \
        [ALONE[scenario.name] for scenario in scenarios]
    assert not outcome.aborted
    assert [result.name for result in outcome.failures()] == \
        [scenario.name for scenario in scenarios if scenario.name in FAILING]
    assert outcome.all_ok() == (not outcome.failures())


@settings(max_examples=40, deadline=None)
@given(campaigns)
def test_fail_fast_returns_the_prefix_through_the_first_failure(scenarios):
    seen = []
    stopped = CampaignRunner(fail_fast=True, on_result=seen.append).run(scenarios)
    names = [scenario.name for scenario in scenarios]
    failing = [index for index, name in enumerate(names) if name in FAILING]
    end = failing[0] + 1 if failing else len(names)
    assert [result.name for result in stopped] == names[:end]
    assert seen == stopped.results
    assert stopped.aborted == bool(failing)
    assert [outcome_of(result) for result in stopped] == \
        [ALONE[name] for name in names[:end]]


@settings(max_examples=40, deadline=None)
@given(campaigns, st.booleans())
def test_campaign_metrics_account_for_every_result(scenarios, fail_fast):
    with use_registry(MetricsRegistry()) as registry:
        outcome = CampaignRunner(fail_fast=fail_fast).run(scenarios)
        snapshot = registry.snapshot()
    counters = snapshot["counters"]
    failures = len(outcome.failures())
    assert counters.get("campaign.scenarios", 0) == len(outcome)
    assert counters.get("campaign.failures", 0) == failures
    assert counters.get("campaign.aborted", 0) == int(outcome.aborted)
    histogram = snapshot["histograms"].get("campaign.scenario_seconds")
    assert (histogram["count"] if histogram else 0) == len(outcome)
