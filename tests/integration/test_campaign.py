"""Integration tests for the campaign runner.

The acceptance bar for the campaign runner: results come back in list
order, with per-scenario failures isolated, and -- since every scenario
of a campaign runs in one process, one after another -- no scenario's
outcome depends on which scenarios ran before it.
"""

import dataclasses

import pytest

from repro.experiments import runners
from repro.sim import CampaignRunner, Scenario, run_scenario


def named(scenarios, name):
    """The scenario called *name* in a ``*_scenarios()`` list."""
    return next(scenario for scenario in scenarios if scenario.name == name)


def broken(name="broken"):
    """A scenario whose body raises."""
    def body():
        raise LookupError("broken scenario body")
    return Scenario(name, body)


def small_campaign():
    """A mixed campaign: testbench, attack and model-check scenarios."""
    scenarios = list(runners.fig5_scenarios())
    scenarios.append(named(runners.security_scenarios(), "benign-baseline"))
    scenarios.append(named(runners.verification_scenarios(),
                           "ltl-vrased-key-no-dma"))
    return scenarios


class TestCampaignRunner:
    def test_serial_results_preserve_spec_order(self):
        scenarios = small_campaign()
        outcome = CampaignRunner().run(scenarios)
        assert [result.name for result in outcome] == \
            [scenario.name for scenario in scenarios]
        assert outcome.all_ok(), [f.failure_summary() for f in outcome.failures()]

    def test_failures_are_isolated_per_scenario(self):
        scenarios = [
            runners.fig5_scenarios()[0],
            broken(),
            named(runners.security_scenarios(), "benign-baseline"),
        ]
        outcome = CampaignRunner().run(scenarios)
        assert len(outcome) == 3
        assert outcome[0].ok and outcome[2].ok
        assert not outcome[1].ok
        assert "broken scenario body" in outcome[1].error
        assert not outcome.all_ok()
        assert [f.name for f in outcome.failures()] == ["broken"]

    def test_campaign_result_accounting(self):
        outcome = CampaignRunner().run(small_campaign()[:2])
        assert len(outcome) == 2
        assert outcome.rows() == [result.row for result in outcome]
        assert outcome.elapsed_seconds > 0
        assert not outcome.aborted

    def test_stream_hook_sees_failures_without_fail_fast(self):
        scenarios = [broken("broken-first")] + small_campaign()[:2]
        seen = []
        outcome = CampaignRunner(on_result=seen.append).run(scenarios)
        assert seen == list(outcome)
        assert [result.name for result in seen] == \
            [scenario.name for scenario in scenarios]
        assert not outcome.aborted

    def test_empty_campaign_is_clean(self):
        outcome = CampaignRunner(fail_fast=True).run([])
        assert len(outcome) == 0
        assert outcome.rows() == [] and outcome.failures() == []
        assert outcome.all_ok() and not outcome.aborted

    def test_any_iterable_of_scenarios_runs(self):
        scenarios = small_campaign()[:2]
        outcome = CampaignRunner().run(scenario for scenario in scenarios)
        assert [result.name for result in outcome] == \
            [scenario.name for scenario in scenarios]

    def test_runner_is_reusable_across_campaigns(self):
        runner = CampaignRunner()
        first = runner.run(small_campaign())
        second = runner.run(small_campaign())
        assert [outcome_of(result) for result in first] == \
            [outcome_of(result) for result in second]


def paper_scenarios():
    """Every scenario of the paper's six campaigns, in experiment order."""
    return [scenario for scenarios in (
        runners.fig5_scenarios(), runners.fig6_scenarios(),
        runners.verification_scenarios(), runners.runtime_scenarios(),
        runners.busywait_scenarios(), runners.security_scenarios(),
    ) for scenario in scenarios]


PAPER_SCENARIOS = {scenario.name: scenario for scenario in paper_scenarios()}


def outcome_of(result):
    """What a scenario produced, without its wall-clock time."""
    return (result.row, result.expected, result.ok, result.error)


@pytest.fixture(scope="module")
def paper_campaigns():
    """The paper's scenarios as one campaign, run forward and reversed."""
    scenarios = paper_scenarios()
    forward = CampaignRunner().run(scenarios)
    reverse = CampaignRunner().run(scenarios[::-1])
    return ({result.name: result for result in forward},
            {result.name: result for result in reverse})


class TestSerialIsolation:
    """Scenarios share one interpreter (the link and decode caches, and
    the models of one verification list), so each must leave nothing
    behind that changes a later one: its outcome is the same whether it
    runs first, last or alone."""

    def test_paper_scenario_names_are_unique(self):
        assert len(PAPER_SCENARIOS) == len(paper_scenarios()) == 40

    @pytest.mark.parametrize("name", list(PAPER_SCENARIOS))
    def test_outcome_is_independent_of_campaign_order(self, paper_campaigns, name):
        forward, reverse = paper_campaigns
        alone = run_scenario(PAPER_SCENARIOS[name])
        assert forward[name].ok, forward[name].failure_summary()
        assert outcome_of(forward[name]) == outcome_of(reverse[name])
        assert outcome_of(forward[name]) == outcome_of(alone)


class TestCampaignRunnerSurface:
    def test_keywords_are_the_hook_and_fail_fast(self):
        import inspect

        parameters = inspect.signature(CampaignRunner).parameters
        assert list(parameters) == ["on_result", "fail_fast"]

    @pytest.mark.parametrize("keyword, value", [
        ("backend", "serial"),
        ("jobs", 1),
        ("warm", False),
        ("heartbeat", 1.0),
        ("store", None),
        ("reuse", True),
    ])
    def test_removed_keyword_rejected(self, keyword, value):
        # Campaigns run serially and keep no result store: a caller
        # still passing a backend, pool or store option gets an error,
        # not a silently serial, uncached run.
        with pytest.raises(TypeError, match=keyword):
            CampaignRunner(**{keyword: value})


class TestRunAllExperiments:
    def test_run_all_accepts_prebuilt_campaign(self):
        seen = []
        campaign = CampaignRunner(on_result=seen.append)
        results = runners.run_all_experiments(
            skip=["E4-E5", "E6", "E8", "E9", "FLEET"], campaign=campaign)
        assert [r.experiment_id for r in results] == ["E1-E3", "E7"]
        assert all(result.succeeded for result in results)
        # Both experiments ran their scenarios through the given runner.
        assert len(seen) == len(runners.fig5_scenarios()) \
            + len(runners.runtime_scenarios())

    def test_every_scenario_goes_through_the_module_run_scenario(self, monkeypatch):
        # perfbench wraps repro.sim.runner.run_scenario as a module
        # attribute (sim.scenario_s, sim.scenarios), so the runner must
        # look it up there for every scenario of the paper's campaigns.
        from repro.sim import runner as sim_runner

        seen = []
        original = sim_runner.run_scenario

        def counting(scenario):
            seen.append(scenario.name)
            return original(scenario)

        monkeypatch.setattr(sim_runner, "run_scenario", counting)
        results = runners.run_all_experiments(skip=["FLEET"])
        assert all(result.succeeded for result in results)
        assert seen == [scenario.name for scenario in paper_scenarios()]


class TestFailFast:
    """``fail_fast=True`` aborts dispatch at the first ``ok=False``."""

    def _ltl_scenarios(self, count):
        check = named(runners.verification_scenarios(), "ltl-vrased-key-no-dma")
        return [dataclasses.replace(check, name="ltl-ok-%d" % index)
                for index in range(count)]

    def test_serial_stops_at_first_failure(self):
        scenarios = self._ltl_scenarios(1) + [broken()] \
            + self._ltl_scenarios(3)[1:]
        outcome = CampaignRunner(fail_fast=True).run(scenarios)
        assert outcome.aborted
        assert [result.name for result in outcome] == ["ltl-ok-0", "broken"]
        assert not outcome.all_ok()
        assert [f.name for f in outcome.failures()] == ["broken"]

    def test_serial_clean_run_is_not_aborted(self):
        scenarios = self._ltl_scenarios(3)
        outcome = CampaignRunner(fail_fast=True).run(scenarios)
        assert not outcome.aborted
        assert len(outcome) == len(scenarios)
        assert outcome.all_ok()

    @pytest.mark.parametrize("position", range(4))
    def test_abort_point_follows_the_first_failure(self, position):
        scenarios = self._ltl_scenarios(4)
        scenarios[position] = broken()
        # A second failure after the first must never be reached.
        scenarios.append(broken("broken-later"))
        seen = []
        outcome = CampaignRunner(fail_fast=True, on_result=seen.append).run(scenarios)
        expected = [scenario.name for scenario in scenarios[:position + 1]]
        assert outcome.aborted
        assert [result.name for result in outcome] == expected
        assert [result.name for result in seen] == expected
        assert [f.name for f in outcome.failures()] == ["broken"]

    def test_streamed_results_stop_after_failure(self):
        scenarios = self._ltl_scenarios(1) + [broken()] \
            + self._ltl_scenarios(2)[1:]
        seen = []
        outcome = CampaignRunner(fail_fast=True, on_result=seen.append).run(scenarios)
        assert [result.name for result in seen] == ["ltl-ok-0", "broken"]
        assert outcome.aborted
