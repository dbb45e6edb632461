"""Integration tests for the campaign runner.

The acceptance bar for the scenario-campaign engine: results come back
in spec order, with per-scenario failures isolated, and -- since every
scenario of a campaign runs in one process, one after another -- no
scenario's outcome depends on which scenarios ran before it.
"""

import pytest

from repro.experiments import runners
from repro.sim import (
    CampaignRunner,
    EventSpec,
    FirmwareRef,
    Observe,
    ScenarioSpec,
    run_scenario,
)


def small_campaign():
    """A mixed campaign touching every spec kind except jobs."""
    specs = list(runners.fig5_scenarios())
    specs.append(ScenarioSpec(name="benign-baseline", kind="attack",
                              expect={"detected": True}))
    specs.append(ScenarioSpec(name="ltl-vrased-key-no-dma", kind="ltl",
                              ltl_property="vrased-key-no-dma",
                              expect={"holds": True}))
    return specs


class TestCampaignRunner:
    def test_serial_results_preserve_spec_order(self):
        specs = small_campaign()
        outcome = CampaignRunner().run(specs)
        assert [result.name for result in outcome] == [spec.name for spec in specs]
        assert outcome.all_ok(), [f.failure_summary() for f in outcome.failures()]

    def test_failures_are_isolated_per_scenario(self):
        specs = [
            runners.fig5_scenarios()[0],
            ScenarioSpec(name="broken",
                         firmware=FirmwareRef.of("no-such-firmware")),
            ScenarioSpec(name="benign-baseline", kind="attack",
                         expect={"detected": True}),
        ]
        outcome = CampaignRunner().run(specs)
        assert len(outcome) == 3
        assert outcome[0].ok and outcome[2].ok
        assert not outcome[1].ok
        assert "no-such-firmware" in outcome[1].error
        assert not outcome.all_ok()
        assert [f.name for f in outcome.failures()] == ["broken"]

    def test_campaign_result_accounting(self):
        outcome = CampaignRunner().run(small_campaign()[:2])
        assert len(outcome) == 2
        assert outcome.rows() == [result.row for result in outcome]
        assert outcome.elapsed_seconds > 0
        assert not outcome.aborted


def paper_specs():
    """Every spec of the paper's six campaigns, in experiment order."""
    return [spec for scenarios in (
        runners.fig5_scenarios(), runners.fig6_scenarios(),
        runners.verification_scenarios(), runners.runtime_scenarios(),
        runners.busywait_scenarios(), runners.security_scenarios(),
    ) for spec in scenarios]


PAPER_SPECS = {spec.name: spec for spec in paper_specs()}


def outcome_of(result):
    """What a scenario produced, without its wall-clock time."""
    return (result.row, result.expected, result.ok, result.error)


@pytest.fixture(scope="module")
def paper_campaigns():
    """The paper's scenarios as one campaign, run forward and reversed."""
    specs = paper_specs()
    forward = CampaignRunner().run(specs)
    reverse = CampaignRunner().run(specs[::-1])
    return ({result.name: result for result in forward},
            {result.name: result for result in reverse})


class TestSerialIsolation:
    """Scenarios share one interpreter (model and decode caches, the
    property index), so each must leave nothing behind that changes a
    later one: its outcome is the same whether it runs first, last or
    alone."""

    def test_paper_scenario_names_are_unique(self):
        assert len(PAPER_SPECS) == len(paper_specs()) == 40

    @pytest.mark.parametrize("name", list(PAPER_SPECS))
    def test_outcome_is_independent_of_campaign_order(self, paper_campaigns, name):
        forward, reverse = paper_campaigns
        alone = run_scenario(PAPER_SPECS[name])
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


class TestEventSpecKinds:
    def test_write_word_event_is_observed_by_monitor(self):
        # Rewriting an IVT entry mid-execution must clear EXEC: the
        # declarative write_word event goes through write_word_as_cpu,
        # which the ASAP monitor observes like malware-executed MOVs.
        from repro.memory.ivt import IVT_BASE

        spec = ScenarioSpec(
            name="declarative-ivt-write",
            firmware=FirmwareRef.of("syringe_pump"),
            events=(EventSpec("write_word", step=20, args=(IVT_BASE + 4, 0xE004)),),
            observe=(Observe("accepted"), Observe("exec_flag")),
            expect={"accepted": False, "exec_flag": 0},
        )
        outcome = CampaignRunner().run([spec])
        assert outcome.all_ok(), outcome[0].failure_summary()

    def test_dma_events_reproduce_gallery_attack(self):
        from repro.memory.ivt import IVT_BASE

        spec = ScenarioSpec(
            name="declarative-dma-ivt",
            firmware=FirmwareRef.of("syringe_pump"),
            events=(
                EventSpec("dma_configure", args=(0x0200, IVT_BASE + 4, 2)),
                EventSpec("dma_trigger", step=20),
            ),
            observe=(Observe("accepted"),),
            expect={"accepted": False},
        )
        outcome = CampaignRunner().run([spec])
        assert outcome.all_ok(), outcome[0].failure_summary()


class TestFailFast:
    """``fail_fast=True`` aborts dispatch at the first ``ok=False``."""

    def _ltl_specs(self, count):
        return [
            ScenarioSpec(name="ltl-ok-%d" % index, kind="ltl",
                         ltl_property="vrased-key-no-dma",
                         expect={"holds": True})
            for index in range(count)
        ]

    def test_serial_stops_at_first_failure(self):
        specs = self._ltl_specs(1) + [
            ScenarioSpec(name="broken",
                         firmware=FirmwareRef.of("no-such-firmware")),
        ] + self._ltl_specs(3)[1:]
        outcome = CampaignRunner(fail_fast=True).run(specs)
        assert outcome.aborted
        assert [result.name for result in outcome] == ["ltl-ok-0", "broken"]
        assert not outcome.all_ok()
        assert [f.name for f in outcome.failures()] == ["broken"]

    def test_serial_clean_run_is_not_aborted(self):
        specs = self._ltl_specs(3)
        outcome = CampaignRunner(fail_fast=True).run(specs)
        assert not outcome.aborted
        assert len(outcome) == len(specs)
        assert outcome.all_ok()

    @pytest.mark.parametrize("position", range(4))
    def test_abort_point_follows_the_first_failure(self, position):
        specs = self._ltl_specs(4)
        specs[position] = ScenarioSpec(
            name="broken", firmware=FirmwareRef.of("no-such-firmware"))
        # A second failure after the first must never be reached.
        specs.append(ScenarioSpec(name="broken-later", kind="ltl",
                                  ltl_property="no-such-property"))
        seen = []
        outcome = CampaignRunner(fail_fast=True, on_result=seen.append).run(specs)
        expected = [spec.name for spec in specs[:position + 1]]
        assert outcome.aborted
        assert [result.name for result in outcome] == expected
        assert [result.name for result in seen] == expected
        assert [f.name for f in outcome.failures()] == ["broken"]

    def test_streamed_results_stop_after_failure(self):
        specs = self._ltl_specs(1) + [
            ScenarioSpec(name="broken",
                         firmware=FirmwareRef.of("no-such-firmware")),
        ] + self._ltl_specs(2)[1:]
        seen = []
        outcome = CampaignRunner(fail_fast=True, on_result=seen.append).run(specs)
        assert [result.name for result in seen] == ["ltl-ok-0", "broken"]
        assert outcome.aborted
