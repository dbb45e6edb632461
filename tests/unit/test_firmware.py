"""Unit tests for the firmware programs and the PoX testbench harness."""

import pytest

from repro.firmware.blinker import BlinkerParameters, blinker_firmware
from repro.firmware.sensor_logger import SensorParameters, sensor_logger_firmware
from repro.firmware.syringe_pump import (
    PUMP_OUTPUT_LAYOUT,
    PumpParameters,
    STATUS_ABORTED,
    STATUS_COMPLETED,
    busy_wait_pump_firmware,
    syringe_pump_firmware,
)
from repro.firmware.testbench import (
    PoxTestbench,
    TestbenchConfig,
    clear_link_cache,
)
from repro.peripherals.registers import InterruptVectors


class TestLinkCache:
    def test_same_source_reuses_linked_firmware(self):
        clear_link_cache()
        first = PoxTestbench(blinker_firmware(authorized=True))
        second = PoxTestbench(blinker_firmware(authorized=True))
        assert first.firmware is second.firmware

    def test_cache_key_covers_source_and_er_base(self):
        clear_link_cache()
        base = PoxTestbench(blinker_firmware(authorized=True))
        other_source = PoxTestbench(blinker_firmware(authorized=False))
        other_base = PoxTestbench(blinker_firmware(authorized=True),
                                  TestbenchConfig(er_base=0xE100))
        assert base.firmware is not other_source.firmware
        assert base.firmware is not other_base.firmware
        assert other_base.firmware.executable.region.start == 0xE100

    def test_devices_stay_isolated_despite_shared_image(self):
        # Corrupting one device's ER must not leak through the shared
        # LinkedFirmware into a later testbench (the image is read-only;
        # each device gets its own copy of the bytes at load time).
        clear_link_cache()
        first = PoxTestbench(blinker_firmware(authorized=True))
        er = first.firmware.executable.region
        pristine = first.device.memory.dump_region(er)
        first.device.memory.load_bytes(er.start, b"\xFF" * 16)
        second = PoxTestbench(blinker_firmware(authorized=True))
        assert second.firmware is first.firmware
        assert second.device.memory.dump_region(er) == pristine

    def test_cached_testbench_still_passes_pox(self):
        clear_link_cache()
        PoxTestbench(blinker_firmware(authorized=True))  # warm the cache
        bench = PoxTestbench(blinker_firmware(authorized=True),
                             TestbenchConfig(architecture="asap"))
        result = bench.run_pox(setup=lambda d: d.schedule_button_press(6))
        assert result.accepted


class TestFirmwareSpecs:
    def test_pump_declares_trusted_isrs(self):
        spec = syringe_pump_firmware()
        assert InterruptVectors.TIMER_A0 in spec.trusted_isrs
        assert InterruptVectors.PORT1 in spec.trusted_isrs
        assert InterruptVectors.UART_RX in spec.trusted_isrs

    def test_busy_wait_pump_has_no_isrs(self):
        spec = busy_wait_pump_firmware()
        assert spec.trusted_isrs == {}
        assert spec.untrusted_isrs == {}

    def test_blinker_authorized_vs_unauthorized(self):
        authorized = blinker_firmware(authorized=True)
        unauthorized = blinker_firmware(authorized=False)
        assert InterruptVectors.PORT1 in authorized.trusted_isrs
        assert InterruptVectors.PORT1 in unauthorized.untrusted_isrs

    def test_sensor_logger_uses_uart_isr(self):
        spec = sensor_logger_firmware()
        assert spec.trusted_isrs == {InterruptVectors.UART_RX: "uart_command_isr"}

    def test_pump_parameters_output_addresses(self):
        params = PumpParameters(or_base=0x0600)
        assert params.output_address("delivered") == 0x0600
        assert params.output_address("status") == 0x0602
        assert params.output_address("command") == 0x0604
        assert set(PUMP_OUTPUT_LAYOUT) == {"delivered", "status", "command"}

    def test_sources_are_parameterised(self):
        small = syringe_pump_firmware(PumpParameters(dosage_cycles=10))
        large = syringe_pump_firmware(PumpParameters(dosage_cycles=5000))
        assert small.source != large.source


class TestTestbenchConstruction:
    def test_invalid_architecture_rejected(self):
        with pytest.raises(ValueError):
            TestbenchConfig(architecture="tpm")

    def test_asap_bench_wiring(self, blinker_bench):
        assert blinker_bench.monitor.architecture == "asap"
        assert blinker_bench.protocol.architecture == "asap"
        assert blinker_bench.executable.region.start == 0xE000

    def test_apex_bench_wiring(self, apex_blinker_bench):
        assert apex_blinker_bench.monitor.architecture == "apex"
        assert apex_blinker_bench.protocol.architecture == "apex"

    def test_firmware_loaded_and_ivt_programmed(self, blinker_bench):
        device = blinker_bench.device
        isr = blinker_bench.firmware.symbol("trusted_isr")
        assert device.ivt.get_vector(InterruptVectors.PORT1) == isr
        assert device.memory.peek_word(0xE000) != 0

    def test_geometry_respects_config(self):
        bench = PoxTestbench(
            blinker_firmware(),
            TestbenchConfig(or_start=0x0700, or_end=0x071F, metadata_start=0x0500),
        )
        assert bench.pox_config.output.region.start == 0x0700
        assert bench.pox_config.metadata.region.start == 0x0500

    def test_config_forwards_device_knobs(self):
        bench = PoxTestbench(
            blinker_firmware(),
            TestbenchConfig(trace_enabled=False, decode_cache_enabled=False),
        )
        assert bench.device.config.trace_enabled is False
        assert bench.device.config.decode_cache_enabled is False
        assert bench.device.decode_cache is None

    def test_testbench_trace_is_unbounded(self, pump_bench):
        # Experiment bodies count steps over the whole trace, so the
        # testbench never bounds it.
        assert pump_bench.device.config.trace_limit is None
        pump_bench.run_execution_only()
        assert pump_bench.device.trace.dropped == 0
        assert len(pump_bench.trace_entries()) == pump_bench.device.cpu.step_count


class TestBlinkerExecution:
    def test_clean_run_without_interrupt(self, blinker_bench):
        result = blinker_bench.run_pox()
        assert result.accepted
        assert blinker_bench.exec_flag == 1
        assert blinker_bench.output_word(0) == BlinkerParameters().loop_iterations

    def test_authorized_interrupt_drives_port5(self, blinker_bench):
        result = blinker_bench.run_pox(setup=lambda d: d.schedule_button_press(6))
        assert result.accepted
        assert blinker_bench.device.gpio5.output_value() & 0x10
        assert blinker_bench.device.interrupt_controller.serviced.get(
            InterruptVectors.PORT1) == 1


class TestSyringePumpExecution:
    def test_full_dosage_delivery(self, pump_bench):
        result = pump_bench.run_pox()
        assert result.accepted
        assert pump_bench.output_word(PUMP_OUTPUT_LAYOUT["status"]) == STATUS_COMPLETED
        assert pump_bench.output_word(PUMP_OUTPUT_LAYOUT["delivered"]) == 120
        # The pump was switched off by the timer ISR.
        assert not pump_bench.device.gpio5.output_value() & 0x01

    def test_abort_button_interrupts_dosage(self):
        bench = PoxTestbench(
            syringe_pump_firmware(PumpParameters(dosage_cycles=1000)),
            TestbenchConfig(),
        )
        result = bench.run_pox(setup=lambda d: d.schedule_button_press(25))
        assert result.accepted
        assert bench.output_word(PUMP_OUTPUT_LAYOUT["status"]) == STATUS_ABORTED
        assert bench.output_word(PUMP_OUTPUT_LAYOUT["delivered"]) < 1000
        assert not bench.device.gpio5.output_value() & 0x01

    def test_abort_over_uart(self):
        bench = PoxTestbench(
            syringe_pump_firmware(PumpParameters(dosage_cycles=1000)),
            TestbenchConfig(enable_uart_rx_interrupts=True),
        )
        result = bench.run_pox(setup=lambda d: d.schedule_uart_rx(25, b"\x41"))
        assert result.accepted
        assert bench.output_word(PUMP_OUTPUT_LAYOUT["status"]) == STATUS_ABORTED
        assert bench.output_word(PUMP_OUTPUT_LAYOUT["command"]) == 0x41

    def test_proof_binds_output(self, pump_bench):
        result = pump_bench.run_pox()
        assert result.output is not None
        delivered = result.output[0] | (result.output[1] << 8)
        assert delivered == 120

    def test_busy_wait_variant_completes_without_interrupts(self):
        bench = PoxTestbench(
            busy_wait_pump_firmware(PumpParameters(dosage_cycles=50)),
            TestbenchConfig(architecture="apex"),
        )
        result = bench.run_pox()
        assert result.accepted
        assert bench.output_word(PUMP_OUTPUT_LAYOUT["status"]) == STATUS_COMPLETED
        assert bench.device.interrupt_controller.total_serviced() == 0


class TestSensorLoggerExecution:
    def test_sampling_with_sensor_input(self):
        bench = PoxTestbench(sensor_logger_firmware(SensorParameters(samples=8)),
                             TestbenchConfig(enable_uart_rx_interrupts=True))
        bench.device.gpio1.assert_input(0x03)  # sensor reads 3
        bench.device.memory.load_bytes(0x0023, bytes([0x00]))  # clear stray IFG
        result = bench.run_pox()
        assert result.accepted
        assert bench.output_word(1) == 8       # count
        assert bench.output_word(0) == 8 * 3   # sum

    def test_command_received_during_sampling(self):
        bench = PoxTestbench(sensor_logger_firmware(SensorParameters(samples=32)),
                             TestbenchConfig(enable_uart_rx_interrupts=True))
        result = bench.run_pox(setup=lambda d: d.schedule_uart_rx(10, b"\xab"))
        assert result.accepted
        assert bench.output_word(2) == 0xAB
