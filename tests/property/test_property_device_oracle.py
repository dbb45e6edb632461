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
* the shared log: every field (``dma_*`` included) of every bundle
  each recorder observed, in observation order, with the label and
  step of every event that fired in between;
* every field of every bundle the stop condition was shown;
* every trace entry, with its monitor signals;
* the PoX monitor's violations, EXEC, started/completed flags and
  exported signals, and the ASAP monitor's IVT-guard state and events
  (when attached);
* the step, CPU-step and cycle counters (the trace's included), the
  last step's cycles (what the next peripheral tick is given), the
  decode cache's hits, misses and invalidations, the registers, the
  crash latch and the watchdog resets;
* the serviced (acknowledged) interrupts, the ``fired`` latch of every
  scheduled event and the pending event schedule;
* all 64 KiB of memory.

Programs: the random and memory-heavy generators of
``test_property_decode_cache`` (interrupt vectors aimed at a ``RETI``
outside ER), optionally opened by a quiet stretch and a CPU write to
``DMA0CTL`` that starts a DMA transfer; register-only stretches inside
ER or after its legal exit, each ended by a CPU store into ER, the
IVT, metadata, OR or plain data, by a crashing instruction or by
sleep (woken by a UART byte), some looping through a countdown so that
a stretch hits the decode cache and then misses it on first-time code;
and the sensor logger under ASAP with its trusted UART ISR and an
untrusted PORT5 ISR.  Events: UART bytes, GPIO presses on both ports,
a DMA transfer into plain data, OR, metadata, ER or the IVT, a watchdog
armed to expire, a crash (an illegal word stored at the PC), a device
reset, an event that schedules another one, due on the current step or
later, and one that samples the PoX monitor's exported signals into
the log.

Monitors: a random program runs with or without the ASAP monitor, and
each device gets 0, 1 or 2 *recorders* -- monitors that append what
they observe to one log per device -- so the loop's three ways of
calling ``observe`` (none, one, a fan-out in attach order) are all
compared.  The first recorder may schedule an event from ``observe``.
With one PoX monitor alone and tracing off, the fused loop lets the CPU
settle the steps the monitor would settle as quiet, one
``CPU.run_quiet`` call per stretch up to the call's last step or the
step before the next due event, builds no bundle for them and brings
the monitor's PC-in-ER bit up to date where a stretch of them ends.
The stretch programs (under the ASAP or the APEX monitor), the
``"finished"`` stop (the monitor's own stop condition, which the loop
tests only after the steps it builds a bundle for) and the signal
samples draw that path; explicit examples put an event on the first,
the second and the last step of a stretch and on the step that ends
it, end run calls one step into a stretch, and crash a stretch after
hits and misses.
"""

from unittest import mock

from hypothesis import Phase, example, given, settings, strategies as st

from reference_device import ReferenceDevice
from test_property_decode_cache import (
    BASE,
    _program_bytes,
    memory_heavy_instructions,
    register_files,
)
from test_property_isa import instructions

from repro.apex.hwmod import ApexMonitor
from repro.apex.regions import ExecutableRegion, MetadataRegion, OutputRegion, PoxConfig
from repro.core.hwmod import AsapMonitor
from repro.cpu.signals import MemoryWrite
from repro.device.mcu import Device, DeviceConfig
from repro.firmware import testbench
from repro.firmware.sensor_logger import SensorParameters, sensor_logger_firmware
from repro.isa.instructions import Instruction, Opcode, Operand
from repro.isa.registers import SR, StatusFlag
from repro.memory.ivt import IVT_BASE
from repro.peripherals.registers import (
    DmaBits,
    InterruptVectors,
    PeripheralRegisters,
    WatchdogBits,
)

#: ER, OR and metadata of the random programs (which start at ``BASE``);
#: ER's last word is its legal exit.
RANDOM_POX = PoxConfig(
    executable=ExecutableRegion.spanning(BASE, BASE + 0x3F, exit=BASE + 0x3E),
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
STOP_KINDS = (None, "irq", "bus", "every-third", "finished")
#: Where DMA transfers and software writes land (addresses per program).
PLACES = ("data", "or", "meta", "er", "ivt")
#: Names of the recorders a device gets, in attach order.
RECORDERS = ("first", "second")
#: How far after the current step an event schedules another one; 0 is
#: due on the current step, -1 overdue.
DELAYS = st.integers(min_value=-1, max_value=3)
#: Every phase but ``explain``, which only annotates a failure: it
#: re-ran a shrunk failing draw some 1,800 times, and the failing test
#: took 150 s and grew to 1.3 GB, against 12 s and 0.1 GB without it.
PHASES = tuple(phase for phase in Phase if phase is not Phase.explain)


class Recorder:
    """A monitor that appends ``(name, bundle)`` to its side's log, which
    it shares with the side's other recorder: the log shows the order
    the monitors observe in.  It exports no signals, so the loop sees an
    observer that is not an exporter.

    With a ``plan`` of ``(k, delay)``, its k-th ``observe`` also
    schedules an event ``delay`` steps after the step it observed.
    """

    def __init__(self, name, side):
        self.name = name
        self.side = side
        self.seen = 0
        self.plan = None

    def observe(self, bundle):
        side = self.side
        side.log.append((self.name, bundle))
        self.seen += 1
        if self.plan is not None and self.seen == self.plan[0]:
            side.schedule(side.device.step_number + self.plan[1], "observed")


class Side:
    """One device of the pair, with what the comparison reads from it.

    *monitor* is the ASAP monitor, or ``None`` when none is attached;
    *recorders* recorders are attached after it.
    """

    def __init__(self, device, monitor, recorders, protocol=None):
        self.device = device
        self.monitor = monitor
        self.protocol = protocol
        #: What the recorders observed and which events fired, in order.
        self.log = []
        #: The handle of every event scheduled on the device.
        self.events = []
        self.recorders = [device.attach_monitor(Recorder(name, self))
                          for name in RECORDERS[:recorders]]
        #: Bundles the stop conditions of the current call were shown.
        self.shown = []

    def schedule(self, step, label, action=None):
        """Schedule *action* (by default: nothing) at *step*; a fired
        event logs its label and the step it fired on first."""
        log = self.log

        def fire(target):
            log.append((label, target.step_number))
            if action is not None:
                action(target)

        self.events.append(self.device.schedule(step, fire, label=label))

    def stop_condition(self, kind):
        if kind is None:
            return None
        if kind == "finished":
            # The monitor's own bound method, which the fused loop
            # recognises; without the monitor, no stop condition.
            return self.monitor.finished if self.monitor is not None else None
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
        state = {
            "log": self.log,
            "shown": self.shown,
            "events": [(event.step, event.label, event.fired) for event in self.events],
            "trace": list(device.trace),
            "trace_cycles": device.trace.total_cycles,
            "step_number": device.step_number,
            "last_step_cycles": device._last_step_cycles,
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
        cache = device.decode_cache
        if cache is not None:
            state["cache"] = (cache.hits, cache.misses, cache.invalidations)
        monitor = self.monitor
        if monitor is not None:
            state.update({
                "violations": list(monitor.violations),
                "exec": monitor.exec_flag,
                "started": monitor.execution_started,
                "completed": monitor.execution_completed,
                "signals": monitor.signal_values(),
            })
        if isinstance(monitor, AsapMonitor):
            state["guard"] = (monitor.ivt_guard.state, list(monitor.ivt_guard.events))
        return state

    def forget_call(self):
        self.log.clear()
        self.shown.clear()


def _schedule(side, event, places):
    device = side.device
    kind, step = event[0], event[1]
    if kind == "uart":
        side.events.append(device.schedule_uart_rx(step, event[2]))
    elif kind == "gpio":
        port = device.gpio1 if event[2] == 1 else device.gpio5
        side.events.append(device.schedule_button_press(step, port=port))
    elif kind == "dma":
        destination, words = places[event[2]], event[3]

        def start_dma(target):
            target.dma.configure(DMA_SOURCE, destination, words)
            target.dma.trigger()

        side.schedule(step, "dma", start_dma)
    elif kind == "watchdog":
        interval = event[2]

        def arm_watchdog(target):
            target.watchdog.interval = interval
            target.memory.write_word(PeripheralRegisters.WDTCTL,
                                     WatchdogBits.PASSWORD | WatchdogBits.CLEAR)

        side.schedule(step, "watchdog", arm_watchdog)
    elif kind == "crash":
        side.schedule(step, "crash",
                      lambda target: target.memory.load_word(target.cpu.pc, ILLEGAL))
    elif kind == "reset":
        side.schedule(step, "reset", lambda target: target.reset())
    elif kind == "sample":
        monitor = side.monitor
        side.schedule(step, "sample", lambda target: side.log.append(
            ("signals", None if monitor is None else monitor.signal_values())))
    elif kind == "chain":
        delay = event[2]
        side.schedule(step, "chain", lambda target: side.schedule(
            target.step_number + delay, "chained"))
    elif kind == "observe":
        # Not an event: the first recorder's k-th observe schedules one.
        if side.recorders:
            side.recorders[0].plan = (step, event[2])
    else:
        raise ValueError(kind)


def _drive(pair, events, calls, places):
    for side in pair:
        for event in events:
            _schedule(side, event, places)
    for index, call in enumerate(calls):
        if call[0] == "write":
            call = ("write", places[call[1]], call[2])
        results = [side.call(call) for side in pair]
        assert results[0] == results[1], (index, call)
        fused, reference = (side.state() for side in pair)
        for key in fused:
            # Compared outside the assert: pytest would otherwise diff
            # the two values (all of memory, every bundle) for each
            # failing example the shrinker tries.
            same = fused[key] == reference[key]
            assert same, (key, index, call, _first_difference(fused[key], reference[key]))
        for side in pair:
            side.forget_call()


def _first_difference(fused, reference):
    """Where two compared values first differ."""
    if isinstance(fused, (list, bytes)) and isinstance(reference, type(fused)):
        for position, (mine, theirs) in enumerate(zip(fused, reference)):
            if mine != theirs:
                return position, mine, theirs
        return "lengths", len(fused), len(reference)
    return fused, reference


# ---------------------------------------------------------------- strategies

def event_lists(max_step):
    """Up to one event of each kind, each at a drawn step ("observe":
    at a drawn observation of the first recorder)."""
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
        "reset": maybe(),
        "sample": maybe(),
        "chain": maybe(DELAYS),
        "observe": maybe(DELAYS),
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
QUIET = Instruction(Opcode.MOV, src=Operand.reg(4), dst=Operand.reg(4))
QUIET_BODY = [QUIET] * 2
EVERY_EVENT = [("uart", 5, b"\x41"), ("chain", 8, 0), ("observe", 10, 0),
               ("gpio", 12, 1), ("dma", 20, "or", 3), ("chain", 25, 2),
               ("watchdog", 30, 40), ("reset", 140), ("crash", 150)]
EVERY_CALL = [("run_steps", 60), ("run", 120, "irq"), ("write", "ivt", 0xF000),
              ("step",), ("run_until_pc", BASE + 6, 40), ("run", 120, None),
              ("run_steps", 30), ("step",)]
#: Monitor setups: ``(ASAP attached, recorders)``.
MONITORS = st.tuples(st.booleans(), st.integers(min_value=0, max_value=2))
#: ``MOV #EN|REQ, &DMA0CTL``: the CPU starts the DMA transfer the host
#: configured, which the quiet loop must wake up for.
DMA_KICK = Instruction(Opcode.MOV, src=Operand.imm(DmaBits.EN | DmaBits.REQ),
                       dst=Operand.absolute(PeripheralRegisters.DMA0CTL))
#: ``(quiet steps before the kick, destination, words)``, or no kick.
KICKS = st.none() | st.tuples(st.integers(min_value=1, max_value=8),
                              st.sampled_from(PLACES),
                              st.integers(min_value=1, max_value=4))


# ---------------------------------------------------------------- random programs

def _program_side(device_class, program, register_values, trace, gie, monitors,
                  kick=None, monitor_class=AsapMonitor):
    device = device_class(DeviceConfig(trace_enabled=trace))
    device.memory.load_bytes(BASE, program)
    device.memory.load_word(HANDLER, RETI)
    device.ivt.set_reset_vector(BASE)
    for source in INTERRUPT_SOURCES:
        device.ivt.set_vector(source, HANDLER)
    device.reset()
    for register in (PeripheralRegisters.P1IE, PeripheralRegisters.P5IE,
                     PeripheralRegisters.URCTL):
        device.memory.load_bytes(register, bytes([0x01]))
    for index, value in enumerate(register_values, start=4):
        device.cpu.registers[index] = value
    if gie:
        device.cpu.registers[SR] |= int(StatusFlag.GIE)
    if kick is not None:
        device.dma.configure(DMA_SOURCE, RANDOM_PLACES[kick[1]], kick[2])
    asap, recorders = monitors
    monitor = device.attach_monitor(monitor_class(RANDOM_POX)) if asap else None
    return Side(device, monitor, recorders)


def _check_program(body, register_values, trace, gie, events, calls, monitors, kick):
    if kick is not None:
        # The stopped watchdog goes quiescent after one step; the kick
        # then runs on a quiet step.
        body = [QUIET] * kick[0] + [DMA_KICK] + body
    program = _program_bytes(body)
    pair = [_program_side(device_class, program, register_values, trace, gie,
                          monitors, kick)
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
        monitors=MONITORS,
        kick=KICKS,
    )
    @example(body=QUIET_BODY, register_values=[0] * 12, trace=False, gie=True,
             events=EVERY_EVENT, calls=EVERY_CALL, monitors=(True, 2), kick=None)
    @example(body=QUIET_BODY, register_values=[0] * 12, trace=True, gie=True,
             events=EVERY_EVENT, calls=EVERY_CALL, monitors=(True, 2), kick=None)
    @example(body=QUIET_BODY, register_values=[0] * 12, trace=False, gie=True,
             events=EVERY_EVENT, calls=EVERY_CALL, monitors=(False, 0), kick=None)
    @example(body=QUIET_BODY, register_values=[0] * 12, trace=False, gie=False,
             events=[], calls=[("run_steps", 40)], monitors=(False, 1),
             kick=(4, "data", 3))
    @example(body=QUIET_BODY, register_values=[0] * 12, trace=False, gie=False,
             events=[], calls=[("run_steps", 40)], monitors=(True, 0),
             kick=(4, "er", 2))
    @settings(max_examples=60, deadline=None, phases=PHASES)
    def test_random_programs(self, body, register_values, trace, gie, events, calls,
                             monitors, kick):
        _check_program(body, register_values, trace, gie, events, calls, monitors, kick)

    @given(
        body=st.lists(memory_heavy_instructions(), min_size=1, max_size=12),
        register_values=register_files,
        trace=st.booleans(),
        gie=st.booleans(),
        events=event_lists(60),
        calls=call_lists(RANDOM_TARGETS),
        monitors=MONITORS,
        kick=KICKS,
    )
    @settings(max_examples=60, deadline=None, phases=PHASES)
    def test_memory_heavy_programs(self, body, register_values, trace, gie, events, calls,
                                   monitors, kick):
        _check_program(body, register_values, trace, gie, events, calls, monitors, kick)

    def test_the_kick_runs_on_a_quiet_step(self):
        side = _program_side(Device, _program_bytes([QUIET] * 3 + [DMA_KICK]),
                             [0] * 12, False, False, (False, 1), (3, "data", 2))
        device = side.device
        device.run_steps(4)
        assert not device._periph_dirty
        kick = device.step()
        assert kick.writes[0].address == PeripheralRegisters.DMA0CTL
        assert device._periph_dirty
        assert device.step().dma_writes == [MemoryWrite(RANDOM_PLACES["data"], 0, 2)]


# ---------------------------------------------------------------- quiet stretches

#: Register-only steps from the first one after the watchdog stop (the
#: programs' prologue, 3 words) to ER's last word: the last of them
#: leaves ER through its legal exit.
TO_ER_EXIT = [QUIET] * ((RANDOM_POX.executable.er_max - (BASE + 6)) // 2 + 1)
#: What follows a run of quiet steps.  Each ends the stretch but the
#: countdown: a CPU store of R4 into one of the places (``MOV R4,
#: &place``), a jump into unprogrammed memory (the next step crashes), a
#: write-back to an immediate operand, which crashes after the PC has
#: moved on, or ``BIS #CPUOFF|GIE, SR`` (the next step sleeps, until an
#: interrupt).  The countdown (``DEC R4; JNE`` back to the ``DEC``) loops
#: R4 times inside the stretch: its second pass hits the decode cache,
#: and the code after it misses mid-stretch.
ACTIONS = PLACES + ("jump-away", "write-back", "sleep", "countdown")
JUMP_AWAY = Instruction(Opcode.JMP, jump_offset=0x100)
WRITE_BACK = Instruction(Opcode.RRA, src=Operand.imm(0x1234))
SLEEP = Instruction(Opcode.BIS, src=Operand.imm(int(StatusFlag.CPUOFF | StatusFlag.GIE)),
                    dst=Operand.reg(SR))
COUNTDOWN = [Instruction(Opcode.SUB, src=Operand.imm(1), dst=Operand.reg(4)),
             Instruction(Opcode.JNE, jump_offset=-4)]


def _action(action):
    if action == "jump-away":
        return [JUMP_AWAY]
    if action == "write-back":
        return [WRITE_BACK]
    if action == "sleep":
        return [SLEEP]
    if action == "countdown":
        return list(COUNTDOWN)
    return [Instruction(Opcode.MOV, src=Operand.reg(4),
                        dst=Operand.absolute(RANDOM_PLACES[action]))]


def _stretch_body(outside, segments):
    """Quiet stretches, each followed by an action: *segments* lists
    ``(quiet steps, action)``.  They run inside ER, or, with *outside*,
    after the body has left ER through its legal exit."""
    body = list(TO_ER_EXIT) if outside else []
    for quiet, action in segments:
        body += [QUIET] * quiet + _action(action)
    return body


#: Any number of resets, crashes, signal samples and UART bytes (which
#: wake a sleeping CPU), in schedule order (which is their firing order
#: on a shared step).
STRETCH_STEPS = st.integers(min_value=1, max_value=60)
STRETCH_EVENTS = st.lists(st.one_of(
    st.tuples(st.sampled_from(("reset", "crash", "sample")), STRETCH_STEPS),
    st.tuples(st.just("uart"), STRETCH_STEPS, st.just(b"\x41")),
), max_size=3)
#: Stores into every place, from inside ER (OR excepted: ER may write
#: it) and after the exit.
STORES_INSIDE = [(2, "er"), (0, "ivt"), (1, "meta"), (1, "data")]
STORES_OUTSIDE = [(2, "er"), (0, "ivt"), (1, "meta"), (1, "or")]
#: The exit is step 30 (after the watchdog stop and 28 quiet steps): the
#: first run ends two steps after it, the second two steps later, both
#: on a settled step.
AFTER_EXIT = [("run_steps", 32), ("run", 2, None)]
#: A store, one quiet step and a write-back to an immediate that starts
#: at ``ER_max - 2``, so its crash leaves the PC outside ER.
CRASH_AT_ER_END = [(24, "data"), (1, "write-back")]
#: After the exit (step 30), a stretch from step 31: six quiet steps,
#: then a store into OR at step 37, which the monitor must see.
OR_AFTER_EXIT = [(6, "or")]
#: Three passes of the countdown loop, then first-time code.
COUNT_THREE = [3] + [0] * 11


class TestQuietStretchesMatchTheReferenceLoop:
    @given(
        outside=st.booleans(),
        segments=st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                                    st.sampled_from(ACTIONS)), max_size=4),
        register_values=register_files,
        events=STRETCH_EVENTS,
        calls=call_lists(RANDOM_TARGETS),
        monitor_class=st.sampled_from((AsapMonitor, ApexMonitor)),
    )
    @example(outside=False, segments=STORES_INSIDE, register_values=[0x5A5A] * 12,
             events=[], calls=[("run_steps", 16), ("run", 30, None)],
             monitor_class=AsapMonitor)
    @example(outside=True, segments=STORES_OUTSIDE, register_values=[0x5A5A] * 12,
             events=[], calls=[("run", 30, "finished"), ("run_steps", 30)],
             monitor_class=AsapMonitor)
    @example(outside=True, segments=[], register_values=[0] * 12, events=[],
             calls=AFTER_EXIT, monitor_class=AsapMonitor)
    @example(outside=True, segments=[], register_values=[0] * 12,
             events=[("sample", 33), ("crash", 33)], calls=[("run", 60, None)],
             monitor_class=AsapMonitor)
    @example(outside=True, segments=[], register_values=[0] * 12,
             events=[("sample", 33), ("reset", 33), ("crash", 33)],
             calls=[("run_steps", 40)], monitor_class=AsapMonitor)
    @example(outside=False, segments=[(6, "data")], register_values=[0] * 12,
             events=[("reset", 7), ("crash", 7)], calls=[("run_steps", 12)],
             monitor_class=AsapMonitor)
    @example(outside=True, segments=[(3, "jump-away")], register_values=[0] * 12,
             events=[], calls=[("run", 60, None)], monitor_class=AsapMonitor)
    @example(outside=False, segments=CRASH_AT_ER_END, register_values=[0] * 12,
             events=[], calls=[("run", 60, None)], monitor_class=AsapMonitor)
    @example(outside=True, segments=STORES_OUTSIDE, register_values=[0x5A5A] * 12,
             events=[("sample", 40)], calls=[("run", 60, "finished"), ("run", 60, None)],
             monitor_class=ApexMonitor)
    # An event due on the first, the second and the last settled step of
    # the stretch after the exit, and on the store that ends it.
    @example(outside=True, segments=OR_AFTER_EXIT, register_values=[0] * 12,
             events=[("sample", 31)], calls=[("run_steps", 40)], monitor_class=AsapMonitor)
    @example(outside=True, segments=OR_AFTER_EXIT, register_values=[0] * 12,
             events=[("sample", 32)], calls=[("run_steps", 40)], monitor_class=AsapMonitor)
    @example(outside=True, segments=OR_AFTER_EXIT, register_values=[0] * 12,
             events=[("sample", 36)], calls=[("run_steps", 40)], monitor_class=AsapMonitor)
    @example(outside=True, segments=OR_AFTER_EXIT, register_values=[0] * 12,
             events=[("sample", 37)], calls=[("run_steps", 40)], monitor_class=AsapMonitor)
    # Run calls that end one step into a stretch, and one that starts it.
    @example(outside=True, segments=OR_AFTER_EXIT, register_values=[0] * 12,
             events=[("sample", 32)],
             calls=[("run_steps", 31), ("run", 1, None), ("run", 2, None), ("run_steps", 8)],
             monitor_class=AsapMonitor)
    # Sleep after three quiet steps, inside ER and after the exit; a UART
    # byte wakes the CPU into the RETI outside ER (and back to sleep).
    @example(outside=True, segments=[(3, "sleep")], register_values=[0] * 12,
             events=[("uart", 40, b"\x41"), ("sample", 44)],
             calls=[("run_steps", 38), ("run", 30, None)], monitor_class=AsapMonitor)
    @example(outside=False, segments=[(3, "sleep")], register_values=[0] * 12,
             events=[("uart", 12, b"\x41")], calls=[("run", 20, None)],
             monitor_class=ApexMonitor)
    # A decode miss mid-stretch: the countdown's later passes hit, the
    # code after it runs for the first time, in the same stretch.
    @example(outside=True, segments=[(2, "countdown"), (3, "or")],
             register_values=COUNT_THREE, events=[], calls=[("run_steps", 50)],
             monitor_class=AsapMonitor)
    @example(outside=False, segments=[(2, "countdown"), (3, "data")],
             register_values=COUNT_THREE, events=[("sample", 9)],
             calls=[("run", 20, None)], monitor_class=AsapMonitor)
    # A crash after hits and misses in one stretch: the CPU's counters
    # and the cache's must still be brought up to date.
    @example(outside=True, segments=[(2, "countdown"), (1, "jump-away")],
             register_values=COUNT_THREE, events=[], calls=[("run", 60, None)],
             monitor_class=AsapMonitor)
    @settings(max_examples=60, deadline=None, phases=PHASES)
    def test_stretches_under_one_pox_monitor(self, outside, segments, register_values,
                                             events, calls, monitor_class):
        program = _program_bytes(_stretch_body(outside, segments))
        pair = [_program_side(device_class, program, register_values, False, False,
                              (True, 0), monitor_class=monitor_class)
                for device_class in (Device, ReferenceDevice)]
        _drive(pair, events, calls, RANDOM_PLACES)

    def test_the_stores_run_after_a_settled_stretch(self):
        side = _program_side(Device, _program_bytes(_stretch_body(True, [(1, "or")])),
                             [0] * 12, False, False, (True, 0))
        observed = []
        monitor = side.monitor
        observe = monitor.observe
        monitor.observe = lambda bundle: observed.append(bundle) or observe(bundle)
        assert side.device.run(40) == 40
        exit_step, store = observed[-2:]
        # Left at ER_max, with the stretch before the exit settled.
        assert exit_step.pc == RANDOM_POX.executable.er_max
        assert exit_step.cycle == 30 and len(observed) == 4
        assert monitor.execution_completed
        # The store came two steps later, after a settled one.
        assert store.cycle == 32 and store.writes
        assert [violation.rule for violation in monitor.violations] == ["or-modified"]
        assert monitor.signal_values()["PC_in_ER"] == 0


# ---------------------------------------------------------------- sensor logger

SENSOR_PLACES = {"data": 0x0300, "or": 0x0600, "meta": 0x0400, "er": 0xE010,
                 "ivt": IVT_BASE}
#: ``run_until_pc`` targets of the sensor logger, by symbol.
SENSOR_TARGETS = ("idle", "ER_entry", "ER_exit", "uart_command_isr")
#: Boot to the idle loop, as every prover does.
BOOT = ("run_until_pc", "idle", 64)
EXCHANGE_EVENTS = [("uart", 20, b"\x07"), ("observe", 30, 0), ("gpio", 35, 5),
                   ("dma", 45, "data", 2), ("chain", 50, 0), ("watchdog", 160, 30),
                   ("crash", 240)]
EXCHANGE_CALLS = [("exchange", 400), ("run_steps", 20), ("exchange", 400),
                  ("run", 120, "bus"), ("exchange", 400), ("run_steps", 20)]


def _sensor_side(device_class, samples, trace, port1, recorders):
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
    return Side(bench.device, bench.monitor, recorders, bench.protocol), bench.firmware


class TestSensorLoggerMatchesTheReferenceLoop:
    @given(
        samples=st.integers(min_value=2, max_value=30),
        trace=st.booleans(),
        port1=st.booleans(),
        events=event_lists(200),
        calls=call_lists(SENSOR_TARGETS, extra=(
            st.tuples(st.just("exchange"), st.integers(min_value=0, max_value=400)),) * 2),
        recorders=st.integers(min_value=0, max_value=2),
    )
    @example(samples=10, trace=False, port1=False, events=EXCHANGE_EVENTS,
             calls=EXCHANGE_CALLS, recorders=0)
    @example(samples=10, trace=True, port1=True, events=EXCHANGE_EVENTS,
             calls=EXCHANGE_CALLS, recorders=2)
    @example(samples=10, trace=False, port1=False,
             events=EXCHANGE_EVENTS[:3] + [("reset", 120)], calls=EXCHANGE_CALLS,
             recorders=1)
    @settings(max_examples=40, deadline=None, phases=PHASES)
    def test_sensor_logger_under_asap(self, samples, trace, port1, events, calls,
                                      recorders):
        sides = [_sensor_side(device_class, samples, trace, port1, recorders)
                 for device_class in (Device, ReferenceDevice)]
        firmware = sides[0][1]
        calls = [(name, firmware.symbol(rest[0]), *rest[1:]) if name == "run_until_pc"
                 else (name, *rest) for name, *rest in [BOOT] + calls]
        _drive([side for side, _ in sides], events, calls, SENSOR_PLACES)
