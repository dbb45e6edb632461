"""Differential oracle for the fused step loop.

``Device._run`` is the simulator's one step loop: ``step()`` is one
iteration of it, and ``run``, ``run_until_pc`` and ``run_steps`` call
it.  :class:`~reference_device.ReferenceDevice` keeps the per-step loop
it replaced (``step`` -> ``_publish``, one ``step()`` call per step).
Two devices, one of each, start identical, get the same scheduled
events and the same sequence of calls -- ``step()``, ``run(n, stop)``,
``run_steps(n)``, ``run_until_pc``, a software write
(``write_word_as_cpu``, which goes through ``Device._publish``) and, on
the sensor logger, the PoX protocol's ``call_executable`` -- with
tracing on or off.  After every
call they must agree on:

* the call's result;
* every field of every bundle the monitors observed, and of every
  bundle the stop condition was shown;
* every trace entry, with its monitor signals;
* the ASAP monitor's violations, EXEC, started/completed flags,
  exported signals and IVT-guard state and events;
* the step, CPU-step and cycle counters (the trace's included), the
  registers, the crash latch and the watchdog resets;
* the serviced interrupts and the pending event schedule;
* all 64 KiB of memory.

Programs: the random and memory-heavy generators of
``test_property_decode_cache`` under an ASAP monitor (interrupt vectors
aimed at a ``RETI`` outside ER), and the sensor logger under ASAP with
its trusted UART ISR and an untrusted PORT5 ISR.  Events: UART bytes,
GPIO presses on both ports, a DMA transfer into plain data, OR,
metadata, ER or the IVT, a watchdog armed to expire, and a crash (an
illegal word stored at the PC).
"""

from unittest import mock

from hypothesis import example, given, settings, strategies as st

from reference_device import ReferenceDevice
from test_property_decode_cache import (
    BASE,
    _program_bytes,
    memory_heavy_instructions,
    register_files,
)
from test_property_isa import instructions

from repro.apex.regions import ExecutableRegion, MetadataRegion, OutputRegion, PoxConfig
from repro.core.hwmod import AsapMonitor
from repro.device.mcu import Device, DeviceConfig
from repro.firmware import testbench
from repro.firmware.sensor_logger import SensorParameters, sensor_logger_firmware
from repro.isa.instructions import Instruction, Opcode, Operand
from repro.isa.registers import SR, StatusFlag
from repro.memory.ivt import IVT_BASE
from repro.peripherals.registers import (
    InterruptVectors,
    PeripheralRegisters,
    WatchdogBits,
)

#: ER, OR and metadata of the random programs (which start at ``BASE``).
RANDOM_POX = PoxConfig(
    executable=ExecutableRegion.spanning(BASE, BASE + 0x3F),
    output=OutputRegion.spanning(0x0240, 0x027F),
    metadata=MetadataRegion.at(0x0300),
)
#: A ``RETI`` outside ER that every interrupt of a random program enters.
HANDLER = 0xF000
RETI = 0x1300
#: Not an instruction: fetching it crashes the device.
ILLEGAL = 0x0000
DMA_SOURCE = 0x0200
INTERRUPT_SOURCES = (InterruptVectors.PORT1, InterruptVectors.PORT5,
                     InterruptVectors.UART_RX, InterruptVectors.DMA)
STOP_KINDS = (None, "irq", "bus", "every-third")
#: Where DMA transfers and software writes land (addresses per program).
PLACES = ("data", "or", "meta", "er", "ivt")


class BundleLog:
    """A monitor that keeps every bundle it observes (and exports no
    signals, so the loop sees an observer that is not an exporter)."""

    def __init__(self):
        self.bundles = []

    def observe(self, bundle):
        self.bundles.append(bundle)


class Side:
    """One device of the pair, with what the comparison reads from it."""

    def __init__(self, device, monitor, protocol=None):
        self.device = device
        self.monitor = monitor
        self.protocol = protocol
        self.log = device.attach_monitor(BundleLog())
        #: Bundles the stop conditions of the current call were shown.
        self.shown = []

    def stop_condition(self, kind):
        if kind is None:
            return None
        shown = self.shown

        def stop(bundle, _device):
            shown.append(bundle)
            if kind == "irq":
                return bundle.irq
            if kind == "bus":
                return bool(bundle.writes or bundle.dma_en)
            return len(shown) % 3 == 0

        return stop

    def call(self, call):
        device = self.device
        name = call[0]
        if name == "step":
            return device.step()
        if name == "run":
            return device.run(call[1], self.stop_condition(call[2]))
        if name == "run_steps":
            return device.run_steps(call[1])
        if name == "run_until_pc":
            return device.run_until_pc(call[1], max_steps=call[2])
        if name == "write":
            return device.write_word_as_cpu(call[1], call[2])
        return self.protocol.call_executable(max_steps=call[1])

    def state(self):
        device = self.device
        cpu = device.cpu
        monitor = self.monitor
        return {
            "bundles": self.log.bundles,
            "shown": self.shown,
            "trace": list(device.trace),
            "trace_cycles": device.trace.total_cycles,
            "violations": list(monitor.violations),
            "exec": monitor.exec_flag,
            "started": monitor.execution_started,
            "completed": monitor.execution_completed,
            "signals": monitor.signal_values(),
            "guard": (monitor.ivt_guard.state, list(monitor.ivt_guard.events)),
            "step_number": device.step_number,
            "step_count": cpu.step_count,
            "cycle_count": cpu.cycle_count,
            "registers": list(cpu.registers),
            "crashed": device.crashed,
            "crash_reason": device.crash_reason,
            "watchdog_resets": device.watchdog_resets,
            "serviced": dict(device.interrupt_controller.serviced),
            "pending": [(event.step, event.label) for event in device._events],
            "memory": device.memory.dump(0, 0x10000),
        }

    def forget_call(self):
        self.log.bundles = []
        self.shown.clear()


def _schedule(device, event, places):
    kind, step = event[0], event[1]
    if kind == "uart":
        device.schedule_uart_rx(step, event[2])
    elif kind == "gpio":
        port = device.gpio1 if event[2] == 1 else device.gpio5
        device.schedule_button_press(step, port=port)
    elif kind == "dma":
        destination, words = places[event[2]], event[3]

        def start_dma(target):
            target.dma.configure(DMA_SOURCE, destination, words)
            target.dma.trigger()

        device.schedule(step, start_dma, label="dma")
    elif kind == "watchdog":
        interval = event[2]

        def arm_watchdog(target):
            target.watchdog.interval = interval
            target.memory.write_word(PeripheralRegisters.WDTCTL,
                                     WatchdogBits.PASSWORD | WatchdogBits.CLEAR)

        device.schedule(step, arm_watchdog, label="watchdog")
    else:
        device.schedule(step, lambda target: target.memory.load_word(target.cpu.pc, ILLEGAL),
                        label="crash")


def _drive(pair, events, calls, places):
    for side in pair:
        for event in events:
            _schedule(side.device, event, places)
    for index, call in enumerate(calls):
        if call[0] == "write":
            call = ("write", places[call[1]], call[2])
        results = [side.call(call) for side in pair]
        assert results[0] == results[1], (index, call)
        fused, reference = (side.state() for side in pair)
        for key in fused:
            assert fused[key] == reference[key], (key, index, call)
        for side in pair:
            side.forget_call()


# ---------------------------------------------------------------- strategies

def event_lists(max_step):
    """Up to one event of each kind, each at a drawn step."""
    steps = st.integers(min_value=1, max_value=max_step)

    def maybe(*args):
        return st.none() | st.tuples(steps, *args)

    return st.fixed_dictionaries({
        "uart": maybe(st.binary(min_size=1, max_size=2)),
        "gpio": maybe(st.sampled_from((1, 5))),
        "dma": maybe(st.sampled_from(PLACES),
                     st.integers(min_value=1, max_value=4)),
        "watchdog": maybe(st.integers(min_value=8, max_value=120)),
        "crash": maybe(),
    }).map(lambda drawn: [(kind,) + args for kind, args in drawn.items()
                          if args is not None])


def call_lists(pc_targets, extra=()):
    counts = st.integers(min_value=0, max_value=120)
    return st.lists(st.one_of(
        st.tuples(st.just("step")),
        st.tuples(st.just("run"), counts, st.sampled_from(STOP_KINDS)),
        st.tuples(st.just("run_steps"), counts),
        st.tuples(st.just("run_until_pc"), st.sampled_from(pc_targets), counts),
        st.tuples(st.just("write"), st.sampled_from(PLACES),
                  st.integers(min_value=0, max_value=0xFFFF)),
        *extra,
    ), min_size=1, max_size=6)


RANDOM_TARGETS = (BASE, BASE + 2, BASE + 6, BASE + 0x40, HANDLER)
RANDOM_PLACES = {"data": 0x0220, "or": 0x0240, "meta": 0x0300, "er": BASE + 0x20,
                 "ivt": IVT_BASE}
#: A quiet register-only body, with every event kind and every call kind:
#: the paths a random draw reaches only now and then.
QUIET_BODY = [Instruction(Opcode.MOV, src=Operand.reg(4), dst=Operand.reg(4))] * 2
EVERY_EVENT = [("uart", 5, b"\x41"), ("gpio", 12, 1), ("dma", 20, "or", 3),
               ("watchdog", 30, 40), ("crash", 150)]
EVERY_CALL = [("run_steps", 60), ("run", 120, "irq"), ("write", "ivt", 0xF000),
              ("step",), ("run_until_pc", BASE + 6, 40), ("run", 120, None),
              ("run_steps", 30), ("step",)]


# ---------------------------------------------------------------- random programs

def _program_side(device_class, program, register_values, trace, gie):
    device = device_class(DeviceConfig(trace_enabled=trace))
    device.memory.load_bytes(BASE, program)
    device.memory.load_word(HANDLER, RETI)
    device.ivt.set_reset_vector(BASE)
    for source in INTERRUPT_SOURCES:
        device.ivt.set_vector(source, HANDLER, load_time=True)
    device.reset()
    for register in (PeripheralRegisters.P1IE, PeripheralRegisters.P5IE,
                     PeripheralRegisters.URCTL):
        device.memory.load_bytes(register, bytes([0x01]))
    for index, value in enumerate(register_values, start=4):
        device.cpu.registers[index] = value
    if gie:
        device.cpu.registers[SR] |= int(StatusFlag.GIE)
    monitor = device.attach_monitor(AsapMonitor(RANDOM_POX))
    return Side(device, monitor)


def _check_program(body, register_values, trace, gie, events, calls):
    program = _program_bytes(body)
    pair = [_program_side(device_class, program, register_values, trace, gie)
            for device_class in (Device, ReferenceDevice)]
    _drive(pair, events, calls, RANDOM_PLACES)


class TestRandomProgramsMatchTheReferenceLoop:
    @given(
        body=st.lists(instructions(), min_size=1, max_size=12),
        register_values=register_files,
        trace=st.booleans(),
        gie=st.booleans(),
        events=event_lists(60),
        calls=call_lists(RANDOM_TARGETS),
    )
    @example(body=QUIET_BODY, register_values=[0] * 12, trace=False, gie=True,
             events=EVERY_EVENT, calls=EVERY_CALL)
    @example(body=QUIET_BODY, register_values=[0] * 12, trace=True, gie=True,
             events=EVERY_EVENT, calls=EVERY_CALL)
    @settings(max_examples=60, deadline=None)
    def test_random_programs(self, body, register_values, trace, gie, events, calls):
        _check_program(body, register_values, trace, gie, events, calls)

    @given(
        body=st.lists(memory_heavy_instructions(), min_size=1, max_size=12),
        register_values=register_files,
        trace=st.booleans(),
        gie=st.booleans(),
        events=event_lists(60),
        calls=call_lists(RANDOM_TARGETS),
    )
    @settings(max_examples=60, deadline=None)
    def test_memory_heavy_programs(self, body, register_values, trace, gie, events, calls):
        _check_program(body, register_values, trace, gie, events, calls)


# ---------------------------------------------------------------- sensor logger

SENSOR_PLACES = {"data": 0x0300, "or": 0x0600, "meta": 0x0400, "er": 0xE010,
                 "ivt": IVT_BASE}
#: ``run_until_pc`` targets of the sensor logger, by symbol.
SENSOR_TARGETS = ("idle", "ER_entry", "ER_exit", "uart_command_isr")
#: Boot to the idle loop, as every prover does.
BOOT = ("run_until_pc", "idle", 64)
EXCHANGE_EVENTS = [("uart", 20, b"\x07"), ("gpio", 35, 5), ("dma", 45, "data", 2),
                   ("watchdog", 160, 30), ("crash", 240)]
EXCHANGE_CALLS = [("exchange", 400), ("run_steps", 20), ("exchange", 400),
                  ("run", 120, "bus"), ("exchange", 400), ("run_steps", 20)]


def _sensor_side(device_class, samples, trace, port1):
    # The testbench builds its device from the name in its own module.
    with mock.patch.object(testbench, "Device", device_class):
        bench = testbench.PoxTestbench(
            sensor_logger_firmware(SensorParameters(samples=samples)),
            testbench.TestbenchConfig(
                architecture="asap", trace_enabled=trace,
                enable_port1_interrupts=port1, enable_uart_rx_interrupts=True,
            ),
        )
    assert type(bench.device) is device_class
    bench.device.memory.load_bytes(PeripheralRegisters.P5IE, bytes([0x01]))
    return Side(bench.device, bench.monitor, bench.protocol), bench.firmware


class TestSensorLoggerMatchesTheReferenceLoop:
    @given(
        samples=st.integers(min_value=2, max_value=30),
        trace=st.booleans(),
        port1=st.booleans(),
        events=event_lists(200),
        calls=call_lists(SENSOR_TARGETS, extra=(
            st.tuples(st.just("exchange"), st.integers(min_value=0, max_value=400)),) * 2),
    )
    @example(samples=10, trace=False, port1=False, events=EXCHANGE_EVENTS,
             calls=EXCHANGE_CALLS)
    @example(samples=10, trace=True, port1=True, events=EXCHANGE_EVENTS,
             calls=EXCHANGE_CALLS)
    @settings(max_examples=40, deadline=None)
    def test_sensor_logger_under_asap(self, samples, trace, port1, events, calls):
        sides = [_sensor_side(device_class, samples, trace, port1)
                 for device_class in (Device, ReferenceDevice)]
        firmware = sides[0][1]
        calls = [(name, firmware.symbol(rest[0]), *rest[1:]) if name == "run_until_pc"
                 else (name, *rest) for name, *rest in [BOOT] + calls]
        _drive([side for side, _ in sides], events, calls, SENSOR_PLACES)
