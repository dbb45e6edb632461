"""Unit tests for the device composition and trace recording."""

from repro.device.mcu import Device, DeviceConfig
from repro.device.trace import TraceRecorder, Waveform
from repro.cpu.signals import SignalBundle
from repro.firmware.blinker import blinker_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.isa.assembler import Assembler
from repro.peripherals.registers import InterruptVectors, PeripheralRegisters


def load_program(device, source, base=0xE000, reset=True):
    image = Assembler().assemble(
        ".section .text\n" + source, section_addresses={".text": base}
    )
    image.write_to(device.memory)
    device.ivt.set_reset_vector(base)
    if reset:
        device.reset()
    return image


class TestDeviceBasics:
    def test_reset_loads_pc_from_reset_vector(self, device):
        load_program(device, "NOP\n")
        assert device.cpu.pc == 0xE000

    def test_stack_pointer_initialised(self, device):
        load_program(device, "NOP\n")
        assert device.cpu.sp == (device.layout.data.end + 1) & 0xFFFE

    def test_step_advances_cpu(self, device):
        load_program(device, "MOV #5, R6\nNOP\n")
        device.step()
        assert device.cpu.registers[6] == 5

    def test_run_until_pc(self, device):
        load_program(device, "MOV #5, R6\nMOV #6, R7\ndone:\nJMP done\n")
        reached = device.run_until_pc(0xE000 + 8, max_steps=50)
        assert reached
        assert device.cpu.registers[7] == 6

    def test_run_until_pc_returns_false_on_crash(self, device):
        # Firmware jumps through an unprogrammed interrupt vector: the
        # device crashes long before the target PC.  The early break of
        # the run loop must not be reported as success.
        load_program(device, "MOV &0xFFE4, PC\n")  # vector 2 is 0x0000
        reached = device.run_until_pc(0xE000 + 0x40, max_steps=100)
        assert device.crashed
        assert reached is False

    def test_run_until_pc_true_when_reached_on_final_step(self, device):
        # The stop condition fires on the max_steps-th step: that is
        # still success, even though the step budget is exhausted.
        load_program(device, "start:\nNOP\ndone:\nJMP done\n")
        assert device.run_until_pc(0xE000, max_steps=1) is True

    def test_run_until_pc_true_when_crash_at_target(self, device):
        # The crash happens at the target address itself: the PC did
        # reach it, even though the instruction there was illegal.
        load_program(device, "MOV &0xFFE4, PC\n")
        device.run_steps(2)
        assert device.crashed
        assert device.run_until_pc(device.cpu.pc, max_steps=10) is True

    def test_run_with_stop_condition(self, device):
        load_program(device, "loop:\nINC R6\nJMP loop\n")
        steps = device.run(
            max_steps=100,
            stop_condition=lambda bundle, dev: dev.cpu.registers[6] >= 5,
        )
        assert steps < 100
        assert device.cpu.registers[6] == 5

    def test_total_cycles_accumulate(self, device):
        load_program(device, "NOP\nNOP\nNOP\ndone:\nJMP done\n")
        device.run_steps(3)
        assert device.total_cycles >= 3

    def test_crash_is_latched_not_raised(self, device):
        # Reset vector points at zeroed memory -> illegal instruction.
        device.ivt.set_reset_vector(0xC000)
        device.reset()
        device.run_steps(3)
        assert device.crashed
        assert "illegal instruction" in device.crash_reason

    def test_scheduled_event_fires(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        fired = []
        device.schedule(3, lambda dev: fired.append(dev.step_number))
        device.run_steps(5)
        assert fired == [3]

    def test_monitor_receives_bundles(self, device):
        load_program(device, "NOP\nNOP\ndone:\nJMP done\n")

        class Recorder:
            def __init__(self):
                self.bundles = []

            def observe(self, bundle):
                self.bundles.append(bundle)

        recorder = device.attach_monitor(Recorder())
        device.run_steps(4)
        assert len(recorder.bundles) == 4

    def test_write_word_as_cpu_notifies_monitors(self, device):
        load_program(device, "NOP\n")

        class Recorder:
            def __init__(self):
                self.writes = []

            def observe(self, bundle):
                self.writes.extend(bundle.write_addresses)

        recorder = device.attach_monitor(Recorder())
        device.write_word_as_cpu(0x0600, 0x1234)
        assert 0x0600 in recorder.writes
        assert device.memory.peek_word(0x0600) == 0x1234


class TestCrashedRuns:
    def test_crashed_run_keeps_monitor_signals_in_the_waveform(self):
        # A crash used to be recorded with no monitor signals, so any
        # waveform over a monitor signal raised KeyError('EXEC').
        bench = PoxTestbench(blinker_firmware(authorized=True), TestbenchConfig())
        bench.device.cpu.pc = 0x5000  # unprogrammed memory: illegal instruction
        bench.device.run_steps(5)
        assert bench.device.crashed and bench.device.step_number == 5
        waveform = bench.waveform(("EXEC", "IVT_GUARD_OK", "irq", "PC"))
        assert waveform.length == 5
        assert waveform.series("EXEC") == [0] * 5
        assert waveform.series("IVT_GUARD_OK") == [1] * 5
        assert waveform.series("PC") == [0x5000] * 5

    def test_crash_entries_carry_current_signals_without_observing(self, device):
        load_program(device, "NOP\nMOV &0xFFE4, PC\n")  # vector 2 is 0x0000

        class Exporter:
            def __init__(self):
                self.observed = 0

            def observe(self, bundle):
                self.observed += 1

            def signal_values(self):
                return {"OBSERVED": self.observed}

        exporter = device.attach_monitor(Exporter())
        device.run_steps(6)
        assert device.crashed
        # NOP and MOV were observed; the four crash steps were not.
        assert exporter.observed == 2
        assert device.trace.series("OBSERVED") == [1, 2, 2, 2, 2, 2]


class TestDeviceInterruptsEndToEnd:
    def test_gpio_interrupt_dispatches_to_ivt_handler(self, device):
        source = (
            "EINT\n"
            "loop:\n"
            "NOP\n"
            "JMP loop\n"
            "isr:\n"
            "MOV #1, R10\n"
            "RETI\n"
        )
        image = load_program(device, source)
        device.ivt.set_vector(InterruptVectors.PORT1, image.symbol("isr"))
        device.memory.load_bytes(PeripheralRegisters.P1IE, bytes([0x01]))
        device.schedule_button_press(3)
        device.run_steps(12)
        assert device.cpu.registers[10] == 1
        assert device.interrupt_controller.serviced[InterruptVectors.PORT1] == 1

    def test_uart_rx_event_scheduling(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        device.schedule_uart_rx(2, b"\x7E")
        device.run_steps(6)
        assert device.memory.peek_byte(PeripheralRegisters.URXBUF) == 0x7E

    def test_reset_clears_injected_interrupts(self, device):
        # A stale spoofed IRQ (sticky included) must not survive reset:
        # before the fix, a scenario reset would immediately re-service
        # the injected request.
        load_program(device, "EINT\nloop:\nNOP\nJMP loop\n")
        controller = device.interrupt_controller
        controller.inject(5, sticky=True, label="spoofed")
        device.run_steps(3)
        assert controller.serviced.get(5)
        device.reset()
        assert controller.highest_pending() is None
        assert controller.serviced == {}
        device.run_steps(5)
        assert controller.serviced.get(5) is None

    def test_interrupt_controller_reset_direct(self):
        from repro.peripherals.interrupt_controller import InterruptController

        controller = InterruptController()
        controller.inject(4, sticky=True)
        controller.acknowledge(4)
        assert controller.highest_pending() == 4  # sticky survives service
        controller.reset()
        assert controller.highest_pending() is None
        assert controller.total_serviced() == 0


class TestWatchdogExpiryResetsDevice:
    def arm(self, device, interval):
        """Shrink the watchdog interval so tests expire it quickly."""
        device.watchdog.interval = interval
        device.watchdog.kick()

    def test_expiry_performs_warm_reset(self, device):
        # Firmware that never stops (or services) the watchdog: after
        # the interval elapses the device must restart from the reset
        # vector, not silently keep running -- before the fix,
        # ``Watchdog.expired`` had no reader and expiry was a no-op.
        load_program(device, "loop:\nINC R6\nJMP loop\n")
        self.arm(device, 40)
        device.run_steps(60)
        assert device.watchdog_resets >= 1
        assert not device.crashed
        # The warm reset rewound execution: R6 was cleared and counted
        # up again from the reset vector, so it is far below the total
        # number of INC steps executed.
        assert 0 < device.cpu.registers[6] < 30

    def test_expiry_with_unprogrammed_reset_vector_crashes(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        device.ivt.set_reset_vector(0x0000)  # e.g. flash corruption
        self.arm(device, 40)
        device.run_steps(80)
        assert device.watchdog_resets == 1
        assert device.crashed  # the reset path latched the crash

    def test_held_watchdog_never_resets_device(self, device):
        load_program(device,
                     "MOV #0x5A80, &0x0120\n"  # stop the watchdog
                     "loop:\nNOP\nJMP loop\n")
        self.arm(device, 40)
        device.run_steps(200)
        assert device.watchdog_resets == 0
        assert not device.crashed

    def test_serviced_watchdog_never_resets_device(self, device):
        # Firmware that periodically writes the counter-clear bit keeps
        # the (running) watchdog from ever firing.
        load_program(device,
                     "loop:\n"
                     "MOV #0x5A08, &0x0120\n"  # WDTPW | WDTCNTCL
                     "NOP\nNOP\nNOP\n"
                     "JMP loop\n")
        self.arm(device, 60)
        device.run_steps(300)
        assert device.watchdog_resets == 0
        assert not device.crashed

    def test_device_reset_clears_watchdog_reset_count(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        self.arm(device, 30)
        device.run_steps(60)
        assert device.watchdog_resets >= 1
        device.reset()
        assert device.watchdog_resets == 0


class TestTraceRecorder:
    def make_bundle(self, cycle, pc, irq=False):
        return SignalBundle(cycle=cycle, pc=pc, next_pc=pc + 2, irq=irq)

    def test_record_and_series(self):
        trace = TraceRecorder()
        for index in range(5):
            trace.record(self.make_bundle(index, 0xE000 + 2 * index), {"EXEC": 1})
        assert len(trace) == 5
        assert trace.series("PC")[0] == 0xE000
        assert trace.series("EXEC") == [1] * 5

    def test_disabled_recorder_still_counts_cycles(self):
        trace = TraceRecorder(enabled=False)
        trace.record(self.make_bundle(1, 0xE000))
        assert len(trace) == 0
        assert trace.total_cycles == 1

    def test_steps_with_irq(self):
        trace = TraceRecorder()
        trace.record(self.make_bundle(1, 0xE000))
        trace.record(self.make_bundle(2, 0xE002, irq=True))
        assert len(trace.steps_with_irq()) == 1

    def test_find_first(self):
        trace = TraceRecorder()
        trace.record(self.make_bundle(1, 0xE000))
        trace.record(self.make_bundle(2, 0xE004))
        entry = trace.find_first(lambda e: e.pc == 0xE004)
        assert entry is not None and entry.step == 2

    def test_clear(self):
        trace = TraceRecorder()
        trace.record(self.make_bundle(1, 0xE000))
        trace.clear()
        assert len(trace) == 0 and trace.total_cycles == 0

    def test_bounded_recorder_keeps_most_recent_entries(self):
        trace = TraceRecorder(max_entries=10)
        for index in range(25):
            trace.record(self.make_bundle(index, 0xE000 + 2 * index))
        assert len(trace) == 10
        assert trace.dropped == 15
        assert trace.total_cycles == 25  # cycle accounting is unbounded
        # The survivors are the 10 most recent steps.
        assert [entry.step for entry in trace] == list(range(15, 25))

    def test_bounded_recorder_series_and_waveform(self):
        trace = TraceRecorder(max_entries=4)
        for index in range(8):
            trace.record(self.make_bundle(index, 0xE000 + 2 * index), {"EXEC": 1})
        waveform = trace.waveform(["EXEC", "PC"])
        assert waveform.length == 4
        assert waveform.series("EXEC") == [1, 1, 1, 1]

    def test_bounded_recorder_clear_resets_dropped(self):
        trace = TraceRecorder(max_entries=2)
        for index in range(5):
            trace.record(self.make_bundle(index, 0xE000))
        trace.clear()
        assert trace.dropped == 0 and len(trace) == 0

    def test_invalid_bound_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            TraceRecorder(max_entries=0)

    def test_device_trace_limit_config(self):
        from repro.device.mcu import Device, DeviceConfig
        from repro.isa.assembler import Assembler

        device = Device(DeviceConfig(trace_limit=16))
        image = Assembler().assemble(
            ".section .text\nloop:\nNOP\nJMP loop\n",
            section_addresses={".text": 0xE000},
        )
        image.write_to(device.memory)
        device.ivt.set_reset_vector(0xE000)
        device.reset()
        device.run_steps(100)
        assert len(device.trace) == 16
        assert device.trace.dropped == 84


class TestWaveform:
    def build_trace(self):
        trace = TraceRecorder()
        for index in range(6):
            bundle = SignalBundle(
                cycle=index, pc=0xE000 + 2 * index, next_pc=0xE002 + 2 * index,
                irq=(index == 3),
            )
            trace.record(bundle, {"EXEC": 0 if index >= 4 else 1})
        return trace

    def test_series_extraction(self):
        waveform = self.build_trace().waveform(["EXEC", "irq", "PC"])
        assert waveform.series("irq") == [0, 0, 0, 1, 0, 0]
        assert waveform.series("EXEC") == [1, 1, 1, 1, 0, 0]

    def test_transitions(self):
        waveform = self.build_trace().waveform(["EXEC"])
        assert waveform.transitions("EXEC") == [(4, 1, 0)]

    def test_final_value(self):
        waveform = self.build_trace().waveform(["EXEC"])
        assert waveform.final_value("EXEC") == 0

    def test_ascii_rendering(self):
        text = self.build_trace().waveform(["EXEC", "irq", "PC"]).to_ascii()
        assert "EXEC" in text and "irq" in text and "PC" in text

    def test_rows(self):
        rows = self.build_trace().waveform(["EXEC"]).to_rows()
        assert len(rows) == 6
        assert rows[0]["EXEC"] == 1

    def test_empty_waveform(self):
        waveform = TraceRecorder().waveform(["EXEC"])
        assert waveform.final_value("EXEC") is None
        assert waveform.to_ascii() == "(empty waveform)"

    def test_ascii_annotation_steps_match_strided_columns(self):
        # 150 samples at max_width 72 -> stride 3.  PC changes value at
        # steps 90 and 120; before the fix the annotation used the
        # unstrided indices (90, 120) while the marker row was strided,
        # so the labels pointed at the wrong columns.  The annotated
        # steps must be the *sampled* steps (multiples of the stride)
        # and consistent with the series values at those steps.
        trace = TraceRecorder()
        for index in range(150):
            if index < 90:
                pc = 0xE000
            elif index < 120:
                pc = 0xE800
            else:
                pc = 0xF000
            trace.record(SignalBundle(cycle=index, pc=pc, next_pc=pc))
        waveform = trace.waveform(["PC"])
        text = waveform.to_ascii(max_width=72)
        marker_line = text.splitlines()[0]
        annotation_line = text.splitlines()[1]
        markers = marker_line.split(None, 1)[1]
        stride = 3
        assert len(markers) == 50  # 150 samples strided by 3
        # Parse "step N: 0xVALUE" pairs out of the annotation.
        import re

        pairs = re.findall(r"step (\d+): 0x([0-9A-F]{4})", annotation_line)
        assert pairs, annotation_line
        series = waveform.series("PC")
        for step_text, value_text in pairs:
            step = int(step_text)
            # The annotated step is a sampled step...
            assert step % stride == 0
            # ...whose series value matches the annotation...
            assert series[step] == int(value_text, 16)
            # ...and whose marker column is a transition marker.
            assert markers[step // stride] == "|"
