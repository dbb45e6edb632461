"""Unit tests for the declarative scenario layer (``repro.sim``)."""

import pickle

import pytest

from repro.firmware.blinker import blinker_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.sim import (
    EventSpec,
    FirmwareRef,
    Observe,
    ScenarioSpec,
    StopSpec,
    register_firmware_builder,
    run_scenario,
)
from repro.sim.scenario import FIRMWARE_BUILDERS


def fig5a_spec(**overrides):
    """The Fig. 5(a) scenario as a spec (the canonical test subject)."""
    fields = dict(
        name="fig5a",
        firmware=FirmwareRef.of("blinker", authorized=True),
        config=TestbenchConfig(architecture="asap"),
        events=(EventSpec("button_press", step=6),),
        observe=(Observe("accepted", key="proof accepted"),
                 Observe("exec_flag"),
                 Observe("first_irq_in_er")),
        expect={"proof accepted": True},
        meta={"scenario": "fig5a"},
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestFirmwareRef:
    def test_builds_registered_firmware(self):
        firmware = FirmwareRef.of("blinker", authorized=False).build()
        assert firmware.name.startswith("blinker")

    def test_unknown_builder_reports_registered_names(self):
        with pytest.raises(KeyError, match="blinker"):
            FirmwareRef.of("no-such-firmware").build()

    def test_registration_extends_vocabulary(self):
        register_firmware_builder("blinker-alias", blinker_firmware)
        try:
            firmware = FirmwareRef.of("blinker-alias", authorized=True).build()
            assert firmware.trusted_isrs
        finally:
            del FIRMWARE_BUILDERS["blinker-alias"]

    def test_registration_before_first_use_wins_over_the_built_in(self, monkeypatch):
        # A fresh registry is what a new process starts with: no built-in
        # has been resolved yet.
        import repro.sim.scenario as scenario

        monkeypatch.setattr(scenario, "FIRMWARE_BUILDERS", {})

        def custom(**kwargs):
            return ("custom", kwargs)

        register_firmware_builder("blinker", custom)
        assert FirmwareRef.of("blinker", authorized=True).build() == (
            "custom", {"authorized": True})
        assert scenario.FIRMWARE_BUILDERS["blinker"] is custom
        # Built-ins nobody registered over still resolve on first use.
        assert FirmwareRef.of("sensor_logger").build().name.startswith("sensor")
        assert scenario.FIRMWARE_BUILDERS["sensor_logger"] is not custom

    def test_kwargs_are_ordered_pairs(self):
        ref = FirmwareRef.of("blinker", authorized=True)
        assert ref.kwargs == (("authorized", True),)


class TestScenarioSpec:
    def test_spec_is_picklable_and_round_trips(self):
        spec = fig5a_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_dict_fields_normalise_to_pairs(self):
        spec = fig5a_spec()
        assert spec.expect == (("proof accepted", True),)
        assert spec.meta == (("scenario", "fig5a"),)
        assert spec.expectations() == {"proof accepted": True}
        assert spec.metadata() == {"scenario": "fig5a"}

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec(name="bad", kind="nope")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            fig5a_spec(mode="sideways")

    def test_invalid_stop_kind_rejected(self):
        with pytest.raises(ValueError, match="stop kind"):
            StopSpec(kind="eventually")

    def test_stop_spec_values_validated(self):
        with pytest.raises(ValueError, match="positive step count"):
            StopSpec("steps")  # the default value of 0 would run nothing
        with pytest.raises(ValueError, match="16-bit address"):
            StopSpec("pc", 0x10000)

    def test_config_overrides_apply_on_top_of_base(self):
        spec = fig5a_spec(config_overrides={"trace_limit": 64,
                                            "architecture": "apex"})
        config = spec.testbench_config()
        assert config.architecture == "apex"
        assert config.trace_limit == 64
        # the base config object is not mutated
        assert spec.config.architecture == "asap"

    def test_from_spec_equals_manual_construction(self):
        spec = fig5a_spec()
        from_spec = PoxTestbench.from_spec(spec)
        manual = PoxTestbench(blinker_firmware(authorized=True),
                              TestbenchConfig(architecture="asap"))
        from_spec.device.run_steps(50)
        manual.device.run_steps(50)
        assert from_spec.trace_entries() == manual.trace_entries()

    def test_from_spec_requires_firmware(self):
        with pytest.raises(ValueError, match="firmware"):
            PoxTestbench.from_spec(fig5a_spec(firmware=None))


class TestRunScenario:
    def test_pox_scenario_produces_expected_row(self):
        result = run_scenario(fig5a_spec())
        assert result.ok and result.error is None
        assert result.row == {"scenario": "fig5a", "proof accepted": True,
                              "exec_flag": 1, "first_irq_in_er": True}

    def test_event_schedule_is_applied(self):
        # Without the button press the blinker never services an IRQ.
        result = run_scenario(fig5a_spec(events=(),
                                         expect={"proof accepted": True}))
        assert result.observations["first_irq_in_er"] is None

    def test_expectation_mismatch_flags_not_ok(self):
        result = run_scenario(fig5a_spec(expect={"proof accepted": False}))
        assert not result.ok and result.error is None
        assert "expectation failed" in result.failure_summary()

    def test_error_is_captured_not_raised(self):
        result = run_scenario(fig5a_spec(
            firmware=FirmwareRef.of("no-such-firmware")))
        assert not result.ok
        assert "no-such-firmware" in result.error
        assert "raised" in result.failure_summary()

    def test_unknown_observer_is_an_isolated_error(self):
        result = run_scenario(fig5a_spec(observe=(Observe("bogus"),)))
        assert not result.ok and "bogus" in result.error

    def test_default_observations_for_pox_mode(self):
        result = run_scenario(fig5a_spec(observe=(), expect={}))
        assert result.ok, result.error
        assert set(result.observations) == {"accepted", "exec_flag"}

    def test_default_observations_for_non_attesting_modes(self):
        # Modes that never attest have no protocol result; the default
        # observations must not demand one.
        for mode in ("execution_only", "run"):
            result = run_scenario(fig5a_spec(
                mode=mode, stop=StopSpec("steps", 30),
                observe=(), expect={"crashed": False}))
            assert result.ok, (mode, result.error)
            assert result.observations["steps"] > 0

    def test_run_mode_with_step_stop(self):
        spec = fig5a_spec(mode="run", stop=StopSpec("steps", 40),
                          observe=(Observe("steps"),), expect={"steps": 40})
        result = run_scenario(spec)
        assert result.ok, result.error

    def test_run_mode_with_pc_stop(self):
        bench = PoxTestbench.from_spec(fig5a_spec())
        target = bench.executable.er_min
        spec = fig5a_spec(mode="run", stop=StopSpec("pc", target),
                          observe=(Observe("crashed"),),
                          expect={"crashed": False})
        result = run_scenario(spec)
        assert result.ok, result.error

    def test_attack_kind_runs_gallery_scenario(self):
        result = run_scenario(ScenarioSpec(
            name="benign-baseline", kind="attack",
            expect={"detected": True}))
        assert result.ok, result.error
        assert result.observations["accepted"] is True

    def test_ltl_kind_checks_named_property(self):
        result = run_scenario(ScenarioSpec(
            name="ltl-smoke", kind="ltl",
            ltl_property="vrased-key-access-control",
            expect={"holds": True}))
        assert result.ok, result.error
        assert result.observations["states"] > 0

    def test_ltl_kind_unknown_property_is_isolated(self):
        result = run_scenario(ScenarioSpec(name="nope", kind="ltl"))
        assert not result.ok and "unknown LTL property" in result.error

    def test_results_are_picklable(self):
        result = run_scenario(fig5a_spec())
        clone = pickle.loads(pickle.dumps(result))
        assert clone.row == result.row
