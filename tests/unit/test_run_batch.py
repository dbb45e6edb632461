"""Differential tests for the batched step loop and event pruning.

``Device.run_batch`` must be indistinguishable from calling
``Device.step`` in a loop -- byte-identical traces, identical CPU and
cycle state -- while hoisting the per-step crash/event/tick checks out
of quiescent stretches (including the observer-free ultra-fast path
that skips signal-bundle construction entirely).
"""

import pytest

from repro.cpu.decode_cache import DecodeCache
from repro.cpu.engine import engine_name
from repro.device.mcu import Device, DeviceConfig
from repro.firmware.blinker import blinker_firmware
from repro.firmware.syringe_pump import PumpParameters, syringe_pump_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.isa.assembler import Assembler
from repro.peripherals.registers import PeripheralRegisters


STOP_WATCHDOG = "MOV #0x5A80, &0x%04X\n" % PeripheralRegisters.WDTCTL


def load_program(device, source, base=0xE000):
    image = Assembler().assemble(
        ".section .text\n" + source, section_addresses={".text": base}
    )
    image.write_to(device.memory)
    device.ivt.set_reset_vector(base)
    device.reset()
    return image


def stepped(bench_builder, steps):
    """Run *steps* through the per-step loop; return the bench."""
    bench = bench_builder()
    for _ in range(steps):
        bench.device.step()
    return bench


def batched(bench_builder, steps):
    """Run *steps* through run_batch; return the bench."""
    bench = bench_builder()
    bench.device.run_batch(steps)
    return bench


def assert_same_outcome(reference, candidate):
    assert candidate.device.step_number == reference.device.step_number
    assert candidate.device.total_cycles == reference.device.total_cycles
    assert candidate.device.cpu.registers == reference.device.cpu.registers
    assert candidate.device.crashed == reference.device.crashed
    assert candidate.device.trace.total_cycles == reference.device.trace.total_cycles
    assert candidate.trace_entries() == reference.trace_entries()


class TestRunBatchDifferential:
    def test_traces_identical_with_monitor_and_events(self):
        def build():
            bench = PoxTestbench(blinker_firmware(authorized=True),
                                 TestbenchConfig())
            bench.device.schedule_button_press(6)
            bench.device.schedule_button_press(120)
            return bench

        assert_same_outcome(stepped(build, 400), batched(build, 400))

    def test_traces_identical_on_interrupt_driven_pump(self):
        def build():
            bench = PoxTestbench(
                syringe_pump_firmware(PumpParameters(dosage_cycles=60)),
                TestbenchConfig())
            bench.protocol.deliver_challenge()
            return bench

        assert_same_outcome(stepped(build, 600), batched(build, 600))

    def test_traces_identical_through_crash(self):
        def build():
            bench = PoxTestbench(blinker_firmware(authorized=True),
                                 TestbenchConfig())
            # Jump into unprogrammed memory: an illegal instruction
            # crashes the device, which then keeps emitting crash
            # bundles -- the batched loop must record the same tail.
            bench.device.cpu.pc = 0x5000
            return bench

        reference, candidate = stepped(build, 40), batched(build, 40)
        assert reference.device.crashed
        assert_same_outcome(reference, candidate)

    def test_observer_free_state_identical(self):
        def build():
            bench = PoxTestbench(blinker_firmware(authorized=True),
                                 TestbenchConfig(trace_enabled=False))
            bench.device.detach_monitor(bench.monitor)
            return bench

        reference, candidate = stepped(build, 3000), batched(build, 3000)
        assert_same_outcome(reference, candidate)
        assert candidate.trace_entries() == []

    def test_observer_free_crash_state_identical(self):
        def build():
            bench = PoxTestbench(blinker_firmware(authorized=True),
                                 TestbenchConfig(trace_enabled=False))
            bench.device.detach_monitor(bench.monitor)
            bench.device.cpu.pc = 0x5000
            return bench

        reference, candidate = stepped(build, 25), batched(build, 25)
        assert reference.device.crashed and candidate.device.crashed
        assert_same_outcome(reference, candidate)

    def test_run_steps_goes_through_the_batched_loop(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        device.run_steps(10)
        assert device.step_number == 10

    def test_run_batch_zero_steps(self, device):
        load_program(device, "NOP\nNOP\n")
        assert device.run_batch(0) == 0
        assert device.step_number == 0

    def test_event_scheduled_mid_run_fires_in_batch(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        fired = []
        device.schedule(5, lambda dev: dev.schedule(
            12, lambda d: fired.append(d.step_number), label="nested"))
        device.run_batch(30)
        assert fired == [12]


class TestInterpreterEngine:
    def test_every_device_runs_the_interpreter(self):
        device = Device(DeviceConfig(trace_enabled=False))
        assert engine_name() == "interp"
        assert device.engine.name == "interp"
        assert device.engine.stats() == {"engine": "interp"}

    def test_hot_loop_hits_the_decode_cache(self):
        device = Device(DeviceConfig(trace_enabled=False))
        load_program(device, STOP_WATCHDOG + "loop:\nNOP\nJMP loop\n")
        device.run_batch(200)
        totals = DecodeCache.aggregate_stats()
        assert totals["caches"] >= 1
        assert totals["hits"] >= device.decode_cache.hits >= 1
        assert 0.0 <= totals["hit_rate"] <= 1.0


class TestEventPruning:
    def test_fired_events_are_pruned_from_the_schedule(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        events = [device.schedule(step, lambda dev: None) for step in (2, 4, 6)]
        device.run_steps(5)
        assert [event.fired for event in events] == [True, True, False]
        assert device._events == [events[2]]
        device.run_steps(2)
        assert device._events == []

    def test_schedule_keeps_events_sorted_and_stable(self, device):
        order = []
        first = device.schedule(7, lambda dev: order.append("first@7"))
        early = device.schedule(3, lambda dev: order.append("early@3"))
        second = device.schedule(7, lambda dev: order.append("second@7"))
        assert device._events == [early, first, second]
        load_program(device, "loop:\nNOP\nJMP loop\n")
        # load_program resets the device, which clears the schedule.
        device.schedule(7, lambda dev: order.append("first@7"))
        device.schedule(3, lambda dev: order.append("early@3"))
        device.schedule(7, lambda dev: order.append("second@7"))
        device.run_steps(10)
        assert order == ["early@3", "first@7", "second@7"]

    def test_past_due_event_fires_on_next_step(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        device.run_steps(10)
        fired = []
        device.schedule(3, lambda dev: fired.append(dev.step_number))
        device.run_steps(1)
        assert fired == [11]

    def test_reset_clears_pending_events(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        device.schedule(50, lambda dev: None)
        device.reset()
        assert device._events == []

    def test_long_schedule_does_not_rescan_fired_events(self, device):
        # O(events)-per-step regression guard: after the schedule has
        # fully fired, the hot loop must not be holding the event list.
        load_program(device, "loop:\nNOP\nJMP loop\n")
        for step in range(1, 101):
            device.schedule(step, lambda dev: None)
        device.run_steps(100)
        assert device._events == []
