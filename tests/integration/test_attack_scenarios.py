"""Integration tests: the adversarial scenario suite (experiment E9).

E9 builds its testbenches with tracing on, as its rows are recorded
from traced runs.  Each scenario also runs with the attack module's
``TestbenchConfig`` patched to trace nothing, so the attacks reach the
step loop's tracing-off path, where the CPU settles the steps the ASAP
monitor would settle as quiet; the rows must not change.
"""

import functools

import pytest

from repro.firmware import attacks
from repro.firmware.attacks import attack_suite
from repro.firmware.testbench import TestbenchConfig


SCENARIOS = {scenario.name: scenario for scenario in attack_suite()}


class TestAttackSuiteComposition:
    def test_suite_covers_the_adversary_model(self):
        names = set(SCENARIOS)
        assert {
            "benign-baseline",
            "dma-write-ivt-during-execution",
            "software-ivt-rewrite-before-attestation",
            "er-modified-before-attestation",
            "or-tampered-by-dma-before-attestation",
            "untrusted-interrupt-during-execution",
            "jump-into-middle-of-er",
            "ivt-vector-spoofed-into-er",
            "forged-report-without-device-key",
            "apex-baseline-interrupt-during-execution",
        } <= names

    def test_only_the_baseline_expects_acceptance(self):
        accepting = [name for name, scenario in SCENARIOS.items()
                     if not scenario.expects_rejection]
        assert accepting == ["benign-baseline"]

    def test_descriptions_present(self):
        assert all(scenario.description for scenario in SCENARIOS.values())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_outcome_matches_security_argument(name):
    scenario = SCENARIOS[name]
    outcome = scenario.run()
    assert outcome.detected, (
        "scenario %r not handled as expected: accepted=%s reason=%s"
        % (name, outcome.accepted, outcome.reason)
    )
    if scenario.expects_rejection:
        assert not outcome.accepted
    else:
        assert outcome.accepted and outcome.exec_flag == 1


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_untraced_scenario_gives_the_traced_row(name, monkeypatch):
    scenario = SCENARIOS[name]
    traced = scenario.run()
    monkeypatch.setattr(attacks, "TestbenchConfig",
                        functools.partial(TestbenchConfig, trace_enabled=False))
    untraced = scenario.run()
    assert untraced.detected
    assert untraced.as_row() == traced.as_row()


class TestSpecificDetectionMechanisms:
    def test_ivt_dma_attack_trips_ap1(self):
        outcome = SCENARIOS["dma-write-ivt-during-execution"].run()
        assert outcome.exec_flag == 0

    def test_ivt_spoofing_is_caught_by_the_verifier_not_the_hardware(self):
        outcome = SCENARIOS["ivt-vector-spoofed-into-er"].run()
        # EXEC stays 1 (no protected-window write), yet the proof is rejected.
        assert outcome.exec_flag == 1
        assert not outcome.accepted
        assert "IVT entry" in outcome.reason

    def test_forgery_is_a_mac_failure(self):
        outcome = SCENARIOS["forged-report-without-device-key"].run()
        assert "mismatch" in outcome.reason

    def test_outcome_row_format(self):
        row = SCENARIOS["benign-baseline"].run().as_row()
        assert set(row) == {"scenario", "accepted", "EXEC", "detected", "reason"}

    def test_write_word_event_is_observed_by_monitor(self):
        # Rewriting an IVT entry mid-execution must clear EXEC: a
        # scheduled write_word_as_cpu is observed by the ASAP monitor
        # like a MOV executed by malware.
        from repro.firmware.syringe_pump import syringe_pump_firmware
        from repro.firmware.testbench import PoxTestbench
        from repro.memory.ivt import IVT_BASE

        bench = PoxTestbench(syringe_pump_firmware())
        result = bench.run_pox(setup=lambda device: device.schedule(
            20, lambda d: d.write_word_as_cpu(IVT_BASE + 4, 0xE004)))
        assert not result.accepted
        assert bench.exec_flag == 0
