"""The fused step loop's contract with the monitors, and the quiet step.

``Device._run`` looks each monitor's ``observe`` up once per run call,
never at attach time, so a wrapper put on a monitor class after the
testbench was built (as a profiler or a benchmark does) sees every step
it is shown: with tracing on, every step.  ``PoxMonitorBase.observe``
settles a quiet step -- no CPU or DMA write, ``dma_en`` low, no irq, PC
and next PC on the same side of ER, PC not ``ER_min`` -- right after
its PC tests; a step that differs from a quiet one in any single one of
those signals must still run the rules.

With tracing off and the ASAP monitor alone, the CPU settles those steps
itself on the loop's quiet branch, one ``CPU.run_quiet`` call per
stretch, and no bundle is built for them, so ``observe`` is shown the
others only; ``device.step()`` and a generic stop condition still get a
bundle for every step.
"""

import pytest

from repro.apex.hwmod import ApexMonitor
from repro.core.hwmod import AsapMonitor
from repro.cpu.core import CPU
from repro.cpu.signals import MemoryWrite, SignalBundle
from repro.device.mcu import Device, DeviceConfig
from repro.firmware.sensor_logger import SensorParameters, sensor_logger_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.isa.assembler import Assembler
from repro.peripherals.registers import InterruptVectors, PeripheralRegisters

ER_MIN = 0xE000
ER_INSIDE = 0xE010
OUTSIDE = 0xA000


class TestObserveStaysWrappable:
    def test_a_wrapper_installed_after_attach_sees_every_step(self, blinker_bench,
                                                              monkeypatch):
        calls = []
        observe = AsapMonitor.observe

        def counting_observe(monitor, bundle):
            calls.append(bundle.cycle)
            return observe(monitor, bundle)

        monkeypatch.setattr(AsapMonitor, "observe", counting_observe)
        steps = blinker_bench.protocol.call_executable()
        assert blinker_bench.monitor.execution_completed
        assert steps > 0
        assert len(calls) == steps


def _sensor_bench(trace, samples=10):
    """A sensor-logger prover booted to its idle loop, as ``pox`` runs it."""
    bench = PoxTestbench(
        sensor_logger_firmware(SensorParameters(samples=samples)),
        TestbenchConfig(trace_enabled=trace, enable_port1_interrupts=False,
                        enable_uart_rx_interrupts=True),
    )
    assert bench.device.run_until_pc(bench.firmware.symbol("idle"), 64)
    return bench


def _settled(monitor, bundle):
    """The monitor's quiet test, applied to a bundle."""
    er_start, er_end, er_min = monitor.quiet_test
    return ((er_start <= bundle.pc <= er_end) == (er_start <= bundle.next_pc <= er_end)
            and bundle.pc != er_min
            and not (bundle.writes or bundle.dma_writes or bundle.dma_en or bundle.irq))


def _monitor_state(monitor):
    return (list(monitor.violations), monitor.exec_flag, monitor.execution_started,
            monitor.execution_completed, monitor.signal_values(),
            monitor.ivt_guard.state, list(monitor.ivt_guard.events))


def _observing(monkeypatch):
    """Wrap ``AsapMonitor.observe``; return the ``(monitor, bundle)`` log."""
    seen = []
    observe = AsapMonitor.observe

    def logging_observe(monitor, bundle):
        seen.append((monitor, bundle))
        return observe(monitor, bundle)

    monkeypatch.setattr(AsapMonitor, "observe", logging_observe)
    return seen


class TestTracingOff:
    def test_a_wrapper_sees_the_steps_the_monitor_cannot_settle(self, monkeypatch):
        traced, untraced = _sensor_bench(True), _sensor_bench(False)
        # The steps of the dirty branch (an event fired, or an interrupt
        # was just taken) build their bundle whatever the monitor says.
        ticked = []
        tick = untraced.device._tick_peripherals

        def logging_tick():
            ticked.append(untraced.device.cpu.step_count + 1)
            return tick()

        untraced.device._tick_peripherals = logging_tick
        seen = _observing(monkeypatch)

        def command(device):
            device.schedule_uart_rx(device.step_number + 30, b"\x07")

        steps = []
        for bench in (traced, untraced):
            bench.protocol.deliver_challenge()
            steps.append(bench.protocol.call_executable(setup=command))
            assert bench.monitor.execution_completed
        assert steps[0] == steps[1]
        assert traced.device.interrupt_controller.serviced == {
            InterruptVectors.UART_RX: 1}
        every = [bundle for monitor, bundle in seen if monitor is traced.monitor]
        shown = [bundle for monitor, bundle in seen if monitor is untraced.monitor]
        assert len(every) == steps[0]
        assert shown == [bundle for bundle in every
                         if not _settled(traced.monitor, bundle) or bundle.cycle in ticked]
        assert len(shown) < steps[0] // 4
        assert _monitor_state(untraced.monitor) == _monitor_state(traced.monitor)

    def test_step_returns_the_bundle_of_a_quiet_step(self, monkeypatch):
        bench = _sensor_bench(False)
        device = bench.device
        device.run_steps(4)
        assert not device._periph_dirty
        seen = _observing(monkeypatch)
        bundle = device.step()
        assert isinstance(bundle, SignalBundle)
        assert _settled(bench.monitor, bundle)
        assert seen == [(bench.monitor, bundle)]

    def test_a_generic_stop_condition_is_shown_every_step(self, monkeypatch):
        bench = _sensor_bench(False)
        seen = _observing(monkeypatch)
        shown = []

        def never(bundle, _device):
            shown.append(bundle)
            return False

        first = bench.device.cpu.step_count + 1
        assert bench.device.run(50, never) == 50
        assert [bundle.cycle for bundle in shown] == list(range(first, first + 50))
        assert [bundle for _, bundle in seen] == shown
        assert all(_settled(bench.monitor, bundle) for bundle in shown[1:])


#: ER of the ``pox_config`` fixture (0xE000-0xE07F) run from ``ER_min``:
#: stop the watchdog, NOPs up to the exit at 0xE07E, then sleep outside.
SLEEP_AFTER_EXIT = ("MOV #0x5A80, &0x%04X\n" % PeripheralRegisters.WDTCTL
                    + "NOP\n" * 60 + "exit: NOP\nBIS #0x10, SR\nNOP\n")


def _logging_run_quiet(monkeypatch):
    """Wrap ``CPU.run_quiet``; return its log of ``(steps settled, the
    bundle that ended the stretch or None, the CPU's step count)``."""
    stretches = []
    run_quiet = CPU.run_quiet

    def logging_run_quiet(cpu, limit, quiet):
        ended = run_quiet(cpu, limit, quiet)
        stretches.append((cpu.stretch[0], ended, cpu.step_count))
        return ended

    monkeypatch.setattr(CPU, "run_quiet", logging_run_quiet)
    return stretches


#: ``(steps after ER entry, byte)`` of the four UART commands an exchange
#: of the ``pox`` benchmark's shape (500 samples) serves inside ER.
COMMANDS = ((120, 0x11), (700, 0x22), (1300, 0x33), (1900, 0x44))


class TestStretches:
    def test_an_exchange_settles_its_quiet_steps_in_twelve_calls(self, monkeypatch):
        bench = _sensor_bench(False, samples=500)
        device = bench.device
        stretches = _logging_run_quiet(monkeypatch)
        seen = _observing(monkeypatch)
        due = []

        def commands(target):
            for offset, command in COMMANDS:
                due.append(target.step_number + offset)
                target.schedule_uart_rx(due[-1], bytes([command]))

        bench.protocol.deliver_challenge()
        # The CPU counts the same steps as the device in this run.
        offset = device.step_number - device.cpu.step_count
        steps = bench.protocol.call_executable(setup=commands)
        assert steps == 2525
        assert device.interrupt_controller.serviced == {InterruptVectors.UART_RX: 4}
        # 12 calls settle 2,508 steps; the monitor is shown the other 17.
        assert len(stretches) == 12
        assert sum(settled for settled, _, _ in stretches) == 2508
        assert len(seen) == 17 == steps - 2508
        # 8 end at a step the monitor must see, and it is shown that step.
        ended = [bundle for _, bundle, _ in stretches if bundle is not None]
        assert len(ended) == 8
        assert all(not _settled(bench.monitor, bundle) for bundle in ended)
        shown = [bundle for _, bundle in seen]
        assert all(any(bundle is other for other in shown) for bundle in ended)
        # The other 4 end on the step before each command arrives.
        assert [count + offset + 1 for _, bundle, count in stretches
                if bundle is None] == due
        assert bench.protocol.verify(bench.protocol.attest()).accepted

    def test_the_sleep_after_the_exit_is_settled_in_one_call(self, monkeypatch,
                                                            pox_config):
        device = Device(DeviceConfig(trace_enabled=False))
        image = Assembler().assemble(".section .text\n" + SLEEP_AFTER_EXIT,
                                     section_addresses={".text": ER_MIN})
        image.write_to(device.memory)
        device.ivt.set_reset_vector(ER_MIN)
        device.reset()
        monitor = device.attach_monitor(AsapMonitor(pox_config))
        assert image.symbol("exit") == pox_config.executable.er_max
        stretches = _logging_run_quiet(monkeypatch)
        seen = _observing(monkeypatch)
        assert device.run(200) == 200
        assert device.cpu.sleeping
        # The monitor sees ER_min, the dirty-branch step after the
        # watchdog stop and the exit (step 62).  One stretch ends at the
        # exit; the next settles the BIS and every idle step after it,
        # up to the call's end: 138 steps, not one call per idle step.
        assert [bundle.cycle for _, bundle in seen] == [1, 2, 62]
        assert [(settled, ended) for settled, ended, _ in stretches] == [
            (59, seen[-1][1]), (138, None)]
        assert monitor.exec_flag and monitor.execution_completed
        assert not monitor.violations


def _bundle(pc, next_pc, **signals):
    return SignalBundle(cycle=1, pc=pc, next_pc=next_pc, **signals)


class TestQuietStep:
    @pytest.mark.parametrize("monitor_class, step, rule", [
        (ApexMonitor, _bundle(ER_INSIDE, ER_INSIDE + 2, irq=True), "ltl3-interrupt"),
        (AsapMonitor, _bundle(ER_INSIDE, ER_INSIDE + 2, dma_en=True), "dma-during-er"),
        (AsapMonitor, _bundle(OUTSIDE, OUTSIDE + 2,
                              dma_writes=[MemoryWrite(ER_INSIDE, 0, 2)]), "er-modified"),
        (AsapMonitor, _bundle(OUTSIDE, OUTSIDE + 2,
                              writes=[MemoryWrite(ER_INSIDE, 0, 2)]), "er-modified"),
    ], ids=["irq", "dma_en", "dma_writes", "writes"])
    def test_one_loud_signal_runs_the_rules(self, pox_config, monitor_class, step, rule):
        monitor = monitor_class(pox_config)
        monitor.observe(step)
        assert [violation.rule for violation in monitor.violations] == [rule]

    def test_a_step_at_er_min_raises_exec(self, pox_config):
        monitor = AsapMonitor(pox_config)
        monitor.observe(_bundle(ER_MIN, ER_MIN + 2))
        assert monitor.exec_flag
        assert monitor.execution_started
