"""Tests for ``Device.run_steps``, the step loop's name and event pruning.

``Device.run_steps(n)`` runs the step loop (``Device._run``) for *n*
steps, re-entering it after a crash step: it must run exactly that many
steps and fire every scheduled event on time.
"""

from repro.cpu.decode_cache import DecodeCache
from repro.cpu.engine import engine_name
from repro.device.mcu import Device, DeviceConfig
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


class TestRunSteps:
    def test_run_steps_runs_exactly_count_steps(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        device.run_steps(10)
        assert device.step_number == 10
        assert device.cpu.step_count == 10
        assert len(device.trace) == 10

    def test_run_steps_zero_steps(self, device):
        load_program(device, "NOP\nNOP\n")
        device.run_steps(0)
        assert device.step_number == 0
        assert len(device.trace) == 0

    def test_event_scheduled_mid_run_fires(self, device):
        load_program(device, "loop:\nNOP\nJMP loop\n")
        fired = []
        device.schedule(5, lambda dev: dev.schedule(
            12, lambda d: fired.append(d.step_number), label="nested"))
        device.run_steps(30)
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
        device.run_steps(200)
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
