"""Integration tests: full PoX exchanges under ASAP and APEX.

These tests exercise the whole stack -- assembler, linker, device, CPU,
peripherals, monitors, SW-Att, protocol and verifier -- on the paper's
scenarios.
"""

import pytest

from repro.firmware.blinker import blinker_firmware
from repro.firmware.sensor_logger import SensorParameters, sensor_logger_firmware
from repro.firmware.syringe_pump import (
    PUMP_OUTPUT_LAYOUT,
    PumpParameters,
    STATUS_ABORTED,
    STATUS_COMPLETED,
    busy_wait_pump_firmware,
    syringe_pump_firmware,
)
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.ltl.parser import parse_ltl
from repro.ltl.trace_checker import bundles_to_trace, check_trace
from repro.peripherals.registers import InterruptVectors


class TestAsapEndToEnd:
    def test_authorized_interrupt_proof_accepted(self):
        """Fig. 5(a): an authorized interrupt leaves the proof valid."""
        bench = PoxTestbench(blinker_firmware(authorized=True), TestbenchConfig())
        result = bench.run_pox(setup=lambda d: d.schedule_button_press(6))
        assert result.accepted
        assert result.claimed_exec == 1
        irq_steps = bench.device.trace.steps_with_irq()
        assert len(irq_steps) == 1
        # The ISR the interrupt dispatched to lies inside ER.
        assert bench.executable.contains(irq_steps[0].next_pc)

    def test_unauthorized_interrupt_proof_rejected(self):
        """Fig. 5(b): an unauthorized interrupt invalidates the proof."""
        bench = PoxTestbench(blinker_firmware(authorized=False), TestbenchConfig())
        result = bench.run_pox(setup=lambda d: d.schedule_button_press(6))
        assert not result.accepted
        assert bench.monitor.exec_value() == 0
        assert bench.monitor.violations_for("ltl1-exit")

    def test_proof_report_contains_ivt_snapshot(self):
        bench = PoxTestbench(blinker_firmware(authorized=True), TestbenchConfig())
        bench.protocol.deliver_challenge()
        bench.protocol.call_executable()
        report = bench.protocol.attest()
        assert "IVT" in report.snapshots
        assert len(report.snapshots["IVT"]) == 32
        result = bench.protocol.verify(report)
        assert result.accepted

    def test_multiple_sequential_proofs_on_same_device(self):
        bench = PoxTestbench(blinker_firmware(authorized=True), TestbenchConfig())
        first = bench.run_pox()
        second = bench.run_pox(setup=lambda d: d.schedule_button_press(6))
        assert first.accepted and second.accepted

    def test_trace_satisfies_paper_ltl_properties(self):
        """The recorded execution satisfies LTL 1, 2 and 4 directly."""
        bench = PoxTestbench(blinker_firmware(authorized=True), TestbenchConfig())
        bench.run_pox(setup=lambda d: d.schedule_button_press(6))
        entries = bench.trace_entries()
        # Reconstruct per-step atoms from the recorded PC stream plus the
        # monitor-exported EXEC signal.
        states = []
        for entry in entries:
            states.append({
                "pc_in_er": bench.executable.contains(entry.pc),
                "pc_at_ermin": entry.pc == bench.executable.er_min,
                "pc_at_ermax": entry.pc == bench.executable.er_max,
                "irq": entry.irq,
                "exec": bool(entry.monitor_signals.get("EXEC", 0)),
            })
        ltl1 = parse_ltl("G (pc_in_er & !X pc_in_er -> pc_at_ermax | !X exec)")
        ltl2 = parse_ltl("G (!pc_in_er & X pc_in_er -> X pc_at_ermin | !X exec)")
        assert check_trace(ltl1, states)
        assert check_trace(ltl2, states)

    def test_bundles_to_trace_helper(self):
        bench = PoxTestbench(blinker_firmware(authorized=True), TestbenchConfig())
        bench.protocol.deliver_challenge()
        bundles = []
        bench.device.cpu.pc = bench.executable.er_min
        for _ in range(30):
            bundles.append(bench.device.step())
        states = bundles_to_trace(bundles, bench.pox_config)
        assert any(state["pc_in_er"] for state in states)
        assert all("Wen" in state for state in states)


class TestApexEndToEnd:
    def test_interrupt_free_execution_accepted(self):
        bench = PoxTestbench(blinker_firmware(authorized=True),
                             TestbenchConfig(architecture="apex"))
        result = bench.run_pox()
        assert result.accepted

    def test_any_interrupt_rejected(self):
        """Fig. 5(c): APEX clears EXEC on any interrupt during ER."""
        bench = PoxTestbench(blinker_firmware(authorized=True),
                             TestbenchConfig(architecture="apex"))
        result = bench.run_pox(setup=lambda d: d.schedule_button_press(6))
        assert not result.accepted
        assert bench.monitor.violations_for("ltl3-interrupt")

    def test_busy_wait_pump_works_under_apex(self):
        bench = PoxTestbench(busy_wait_pump_firmware(PumpParameters(dosage_cycles=60)),
                             TestbenchConfig(architecture="apex"))
        result = bench.run_pox()
        assert result.accepted
        assert bench.output_word(PUMP_OUTPUT_LAYOUT["status"]) == STATUS_COMPLETED

    def test_interrupt_driven_pump_fails_under_apex(self):
        """The motivating gap: the paper's syringe pump cannot be proven
        under APEX because it relies on the timer interrupt."""
        bench = PoxTestbench(syringe_pump_firmware(PumpParameters(dosage_cycles=80)),
                             TestbenchConfig(architecture="apex"))
        result = bench.run_pox()
        assert not result.accepted
        assert bench.monitor.violations_for("ltl3-interrupt")


class TestCutOffRun:
    """A run cut off by ``max_steps`` while the PC is still inside ER has
    not completed: the prover reaches SW-Att only by leaving ER, so its
    report measures EXEC = 0.  The blinker's ER run takes 128 steps."""

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
    @pytest.mark.parametrize("architecture", ["apex", "asap"])
    def test_every_cut_inside_er_is_rejected(self, architecture, trace):
        firmware = blinker_firmware(authorized=True)
        config = TestbenchConfig(architecture=architecture, trace_enabled=trace)
        for max_steps in range(1, 128):
            bench = PoxTestbench(firmware, config)
            result = bench.run_pox(max_steps=max_steps)
            assert not result.accepted, max_steps
            assert result.reason.startswith("EXEC = 0: "), (max_steps, result.reason)
            assert bench.pox_config.executable.region.contains(bench.device.cpu.pc)
        bench = PoxTestbench(firmware, config)
        result = bench.run_pox(max_steps=128)
        assert result.accepted, result.reason
        assert bench.device.step_number == 128
        assert not bench.pox_config.executable.region.contains(bench.device.cpu.pc)


class TestAsapVsApexComparison:
    def test_same_firmware_same_event_diverging_outcomes(self):
        """The core claim: identical firmware and identical asynchronous
        event, ASAP accepts while APEX rejects."""
        asap = PoxTestbench(blinker_firmware(authorized=True), TestbenchConfig())
        apex = PoxTestbench(blinker_firmware(authorized=True),
                            TestbenchConfig(architecture="apex"))
        asap_result = asap.run_pox(setup=lambda d: d.schedule_button_press(6))
        apex_result = apex.run_pox(setup=lambda d: d.schedule_button_press(6))
        assert asap_result.accepted
        assert not apex_result.accepted

    def test_pump_functional_results_match_between_architectures(self):
        """Without interrupts both architectures accept and produce the
        same outputs (ASAP adds no runtime overhead or behaviour change)."""
        asap = PoxTestbench(busy_wait_pump_firmware(PumpParameters(dosage_cycles=40)),
                            TestbenchConfig())
        apex = PoxTestbench(busy_wait_pump_firmware(PumpParameters(dosage_cycles=40)),
                            TestbenchConfig(architecture="apex"))
        assert asap.run_pox().accepted
        assert apex.run_pox().accepted
        assert asap.output_bytes() == apex.output_bytes()
        assert asap.device.total_cycles == apex.device.total_cycles


class TestSensorLoggerEndToEnd:
    def test_command_bound_to_proof(self):
        bench = PoxTestbench(sensor_logger_firmware(SensorParameters(samples=24)),
                             TestbenchConfig(enable_uart_rx_interrupts=True))
        result = bench.run_pox(setup=lambda d: d.schedule_uart_rx(12, b"\x5A"))
        assert result.accepted
        command = result.output[4] | (result.output[5] << 8)
        assert command == 0x5A

    def test_sensor_value_cannot_be_forged_after_the_fact(self):
        bench = PoxTestbench(sensor_logger_firmware(SensorParameters(samples=8)),
                             TestbenchConfig())
        bench.run_execution_only()
        # Malware inflates the reported sensor sum before attestation.
        bench.device.write_word_as_cpu(bench.pox_config.output.region.start, 0xFFFF)
        result = bench.attest_and_verify()
        assert not result.accepted
