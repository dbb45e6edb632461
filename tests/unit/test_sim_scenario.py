"""Unit tests for named scenarios and :func:`repro.sim.run_scenario`."""

import dataclasses
import pickle
import time
from collections import Counter

import pytest

from repro.experiments import runners
from repro.sim import Scenario, run_scenario


def named(scenarios, name):
    """The scenario called *name* in a ``*_scenarios()`` list."""
    return next(scenario for scenario in scenarios if scenario.name == name)


def fig5a():
    """The Fig. 5(a) scenario (the canonical test subject)."""
    return named(runners.fig5_scenarios(), "Fig. 5(a)")


def broken_body():
    raise LookupError("broken scenario body")


class TestScenario:
    def test_scenario_is_frozen(self):
        scenario = Scenario("frozen", lambda: {})
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.name = "renamed"

    def test_expect_and_meta_default_to_fresh_dicts(self):
        first = Scenario("first", lambda: {})
        second = Scenario("second", lambda: {})
        assert first.expect == first.meta == {}
        assert first.expect is not second.expect
        assert first.meta is not second.meta


class TestRunScenario:
    def test_row_is_meta_then_observations_in_body_order(self):
        scenario = Scenario("ordered", lambda: {"b": 2, "a": 1},
                            meta={"z": 0, "y": -1})
        result = run_scenario(scenario)
        assert result.ok and result.error is None
        assert list(result.row.items()) == [("z", 0), ("y", -1), ("b", 2), ("a", 1)]

    def test_pox_scenario_produces_expected_row(self):
        result = run_scenario(fig5a())
        assert result.ok and result.error is None
        assert result.row == {"scenario": "Fig. 5(a)", "architecture": "asap",
                              "isr inside ER": True, "final EXEC": 1,
                              "proof accepted": True}

    def test_expectation_mismatch_flags_not_ok(self):
        result = run_scenario(dataclasses.replace(
            fig5a(), expect={"proof accepted": False}))
        assert not result.ok and result.error is None
        assert "expectation failed" in result.failure_summary()

    def test_error_is_captured_not_raised(self):
        result = run_scenario(Scenario("broken", broken_body,
                                       expect={"accepted": True}))
        assert not result.ok
        assert "broken scenario body" in result.error
        assert "raised" in result.failure_summary()
        assert result.observations == {}

    def test_result_copies_meta_and_expect(self):
        # A caller editing one result's row must not change what the
        # scenario produces next time.
        scenario = Scenario("copied", lambda: {"a": 1},
                            expect={"a": 1}, meta={"label": "x"})
        first = run_scenario(scenario)
        first.meta["label"] = "edited"
        first.expected["a"] = 2
        assert scenario.meta == {"label": "x"}
        assert scenario.expect == {"a": 1}
        assert run_scenario(scenario).row == {"label": "x", "a": 1}

    def test_body_runs_once_per_call(self):
        calls = []

        def body():
            calls.append(None)
            return {"calls": len(calls)}

        scenario = Scenario("counted", body)
        assert run_scenario(scenario).observations == {"calls": 1}
        assert run_scenario(scenario).observations == {"calls": 2}

    def test_missing_expected_key_is_a_mismatch(self):
        result = run_scenario(Scenario("silent", lambda: {"other": 1},
                                       expect={"holds": True}))
        assert not result.ok and result.error is None
        assert result.failure_summary() == \
            "silent expectation failed: holds=None (expected True)"

    def test_failure_summary_names_only_the_mismatching_keys(self):
        result = run_scenario(Scenario("partial", lambda: {"a": 1, "b": 2},
                                       expect={"a": 1, "b": 3}))
        assert not result.ok
        assert result.failure_summary() == \
            "partial expectation failed: b=2 (expected 3)"

    def test_ok_result_has_no_failure_summary(self):
        result = run_scenario(Scenario("fine", lambda: {"a": 1},
                                       expect={"a": 1}))
        assert result.ok
        assert result.failure_summary() is None

    def test_error_summary_is_the_exception_line(self):
        result = run_scenario(Scenario("broken", broken_body))
        assert result.failure_summary() == \
            "broken raised: LookupError: broken scenario body"

    def test_elapsed_time_is_recorded_for_errors_too(self):
        def slow_then_broken():
            time.sleep(0.002)
            broken_body()

        result = run_scenario(Scenario("slow", slow_then_broken))
        assert not result.ok
        assert result.elapsed_seconds >= 0.002

    def test_keyboard_interrupt_is_not_captured(self):
        # Only ``Exception`` is folded into the result, so Ctrl-C still
        # stops a sweep.
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_scenario(Scenario("interrupted", interrupted))

    def test_attack_scenario_runs_gallery_attack(self):
        result = run_scenario(named(runners.security_scenarios(),
                                    "benign-baseline"))
        assert result.ok, result.error
        assert result.observations["accepted"] is True

    def test_ltl_scenario_checks_named_property(self):
        result = run_scenario(named(runners.verification_scenarios(),
                                    "ltl-vrased-key-access-control"))
        assert result.ok, result.error
        assert result.observations["states"] > 0

    def test_results_are_picklable(self):
        result = run_scenario(fig5a())
        clone = pickle.loads(pickle.dumps(result))
        assert clone.row == result.row


class TestScenarioBodies:
    def test_each_body_runs_the_workload_it_is_named_after(self):
        # Bodies built in a loop must each bind their own attack and
        # property, not the loop's last one.
        for scenario in runners.security_scenarios():
            assert run_scenario(scenario).observations["scenario"] == scenario.name
        for scenario in runners.verification_scenarios():
            observed = run_scenario(scenario).observations["property"]
            assert "ltl-" + observed == scenario.name

    def test_verification_list_builds_each_model_once_at_call_time(self, monkeypatch):
        from repro.ltl.properties import MODEL_BUILDERS, asap_property_suite

        scenarios = runners.verification_scenarios()
        # Installed after the list was built: the bodies must look the
        # builders up when they run (perfbench wraps them this way).
        builds = []
        for model, builder in list(MODEL_BUILDERS.items()):
            def counting(model=model, builder=builder):
                builds.append(model)
                return builder()
            monkeypatch.setitem(MODEL_BUILDERS, model, counting)
        for scenario in scenarios:
            assert run_scenario(scenario).ok
        used = sorted({prop.model for prop in asap_property_suite()})
        assert sorted(builds) == used
        # A second pass over the same list reuses its models.
        for scenario in scenarios:
            run_scenario(scenario)
        assert sorted(builds) == used

    def test_each_list_builds_its_own_models(self, monkeypatch):
        # Models are shared within one list, never across lists, so each
        # pass over the suite builds (and reports) the same models.
        from repro.ltl.properties import MODEL_BUILDERS, asap_property_suite

        builds = []
        for model, builder in list(MODEL_BUILDERS.items()):
            def counting(model=model, builder=builder):
                builds.append(model)
                return builder()
            monkeypatch.setitem(MODEL_BUILDERS, model, counting)
        for _ in range(2):
            for scenario in runners.verification_scenarios():
                run_scenario(scenario)
        used = {prop.model for prop in asap_property_suite()}
        assert Counter(builds) == {model: 2 for model in used}

    def test_model_build_error_is_isolated_to_its_properties(self, monkeypatch):
        from repro.ltl.properties import MODEL_BUILDERS, asap_property_suite

        def broken_build():
            raise RuntimeError("ivt_guard model unavailable")

        monkeypatch.setitem(MODEL_BUILDERS, "ivt_guard", broken_build)
        models = {"ltl-" + prop.name: prop.model
                  for prop in asap_property_suite()}
        for scenario in runners.verification_scenarios():
            result = run_scenario(scenario)
            if models[scenario.name] == "ivt_guard":
                assert not result.ok
                assert "ivt_guard model unavailable" in result.error
            else:
                assert result.ok, result.failure_summary()

    def test_fig5_rows_are_meta_then_observations_in_column_order(self):
        for scenario in runners.fig5_scenarios():
            assert list(run_scenario(scenario).row) == [
                "scenario", "architecture",
                "isr inside ER", "final EXEC", "proof accepted"]

    def test_execution_only_bodies_report_counts_not_proofs(self):
        # E7 and E8's step counts run the task without an attestation
        # exchange: their rows carry counts only.
        for scenario in runners.runtime_scenarios():
            assert list(run_scenario(scenario).row) == ["configuration", "cycles"]
        interrupt, busy, _ = runners.busywait_scenarios()
        for scenario in (interrupt, busy):
            assert list(run_scenario(scenario).row) == [
                "variant", "active steps", "sleep steps"]

    def test_busywait_parameters_reach_the_abort_scenario(self):
        *_, abort = runners.busywait_scenarios(dosage_cycles=50, abort_step=10)
        result = run_scenario(abort)
        assert result.ok, result.failure_summary()
        assert result.meta == {"abort_step": 10, "dosage_cycles": 50}
        assert 0 < result.observations["delivered"] < 50


#: Each experiment's scenario list and the number of runs the paper
#: reports for it: three Fig. 5 waveforms, the Fig. 6 cost table, 21
#: LTL properties, two E7 monitors, three E8 pump runs and ten attacks.
PAPER_LISTS = (
    ("fig5_scenarios", 3),
    ("fig6_scenarios", 1),
    ("verification_scenarios", 21),
    ("runtime_scenarios", 2),
    ("busywait_scenarios", 3),
    ("security_scenarios", 10),
)


class TestPaperLists:
    @pytest.mark.parametrize("function, count", PAPER_LISTS,
                             ids=[function for function, _ in PAPER_LISTS])
    def test_list_runs_clean_and_expects_only_observed_keys(self, function, count):
        scenarios = getattr(runners, function)()
        assert len(scenarios) == count
        assert len({scenario.name for scenario in scenarios}) == count
        for scenario in scenarios:
            result = run_scenario(scenario)
            assert result.ok, result.failure_summary()
            # An expectation on a key the body never returns could only
            # ever fail.
            assert set(scenario.expect) <= set(result.observations)
