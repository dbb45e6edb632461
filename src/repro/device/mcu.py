"""The composed MCU device.

:class:`Device` is the behavioral equivalent of the openMSP430 SoC used
by the paper's prototype: CPU core, 64 KiB memory with the IVT in its
last 32 bytes, GPIO/timer/UART/DMA/watchdog peripherals, an interrupt
controller, and a set of attached *hardware monitors* (the VRASED, APEX
and ASAP modules) that observe the steps' signal bundles the way the
Verilog modules observe the MCU buses.

``Device._run`` is the simulator's one step loop.  Each step fires its
due events, found with one compare of the step number against
``_next_event_step`` (the first pending event's step).  While a
peripheral is dirty, the step ticks the peripherals, runs the CPU step
with the pending interrupt, attaches the DMA activity and acknowledges
a serviced interrupt; while none is (every peripheral quiescent, no
interrupt pending), the quiet branch runs the CPU step alone, since
only a tick moves DMA data or hands the CPU an interrupt.  Either way
the bundle goes to the attached monitors and into the trace (with
tracing off the step only counts its cycles).  With tracing off and one
attached monitor that declares a quiet test (the APEX and ASAP
monitors), the quiet branch hands that test to the CPU, which runs each
stretch of steps the monitor would settle as quiet in one
:meth:`~repro.cpu.core.CPU.run_quiet` call, up to the next due event or
the first step the monitor must see, and builds no bundle for them: the
monitor is shown the other steps only.  The monitors' ``observe`` is
looked up once per run call: one monitor's is called directly, several
are called in attach order, and with none attached nothing is called.
:meth:`Device.step` is one iteration of the loop;
:meth:`Device.run`, :meth:`Device.run_until_pc` and
:meth:`Device.run_steps` call it.  Bundles the loop does not produce --
a software write, a crashed device's synthetic steps -- go through
``Device._publish``, which observes and records them the same way.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cpu.core import CPU, CPUError
from repro.cpu.decode_cache import DecodeCache
from repro.cpu.engine import InterpreterEngine
from repro.cpu.signals import MemoryWrite, SignalBundle
from repro.device.trace import TraceRecorder
from repro.memory.ivt import InterruptVectorTable
from repro.memory.layout import MemoryLayout
from repro.memory.memory import Memory
from repro.peripherals.dma import DmaController
from repro.peripherals.gpio import GpioPort
from repro.peripherals.interrupt_controller import InterruptController
from repro.peripherals.registers import InterruptVectors, PeripheralRegisters
from repro.peripherals.timer import TimerA
from repro.peripherals.uart import Uart
from repro.peripherals.watchdog import Watchdog

#: ``Device._next_event_step`` while no event is pending: an int, so the
#: step loop's due-event test stays an int compare.
_NO_EVENT = sys.maxsize


@dataclass
class DeviceConfig:
    """Construction parameters for a :class:`Device`.

    ``stack_top`` is where the reset sequence points SP (top of data
    memory by default); ``trace_enabled`` controls whether every step is
    recorded.  Waveforms and scenario observations read the trace;
    deployed provers do not, so the ``pox`` benchmark's prover and the
    fleet's provers run with it off, as do benches measuring raw
    simulation speed.  A disabled trace still counts cycles.

    ``decode_cache_enabled`` (default on) attaches a
    :class:`~repro.cpu.decode_cache.DecodeCache` to the CPU so hot loops
    skip re-decoding; every memory mutation (CPU, DMA and load-time
    programming) invalidates overlapping entries, so self-modifying code
    -- including the attack gallery's ER/IVT rewrites -- always executes
    fresh bytes.  ``trace_limit`` bounds the trace recorder to the last
    *N* entries (ring-buffer style) so crashed or soak runs cannot grow
    memory without limit; ``None`` keeps the full trace.
    """

    layout: MemoryLayout = field(default_factory=MemoryLayout.default)
    stack_top: Optional[int] = None
    trace_enabled: bool = True
    decode_cache_enabled: bool = True
    trace_limit: Optional[int] = None

    def resolved_stack_top(self):
        """Return the effective initial stack pointer."""
        if self.stack_top is not None:
            return self.stack_top
        # Stack grows down from the top of data memory (word aligned).
        return (self.layout.data.end + 1) & 0xFFFE


@dataclass
class ScheduledEvent:
    """An external event scheduled to fire at a given step number.

    ``fired`` is latched for the benefit of whoever kept the handle
    returned by :meth:`Device.schedule`; the device itself drops fired
    events from its pending list so long attack schedules do not pay
    O(events) on every step of the run.
    """

    step: int
    action: Callable[["Device"], None]
    label: str = ""
    fired: bool = False


class Device:
    """A complete simulated MCU."""

    def __init__(self, config: Optional[DeviceConfig] = None):
        self.config = config or DeviceConfig()
        self.layout = self.config.layout
        self.memory = Memory()
        self.ivt = InterruptVectorTable(self.memory)
        self.decode_cache = DecodeCache() if self.config.decode_cache_enabled else None
        if self.decode_cache is not None:
            # Every mutation path (CPU/DMA bus writes, load-time
            # programming, reflashing) reports through this hook, so
            # cached decodes can never go stale.
            self.memory.add_write_listener(self.decode_cache.invalidate_range)
        self.cpu = CPU(self.memory, self.ivt, decode_cache=self.decode_cache)

        self.interrupt_controller = InterruptController()
        self.gpio1 = GpioPort(
            self.memory, "port1",
            PeripheralRegisters.P1IN, PeripheralRegisters.P1OUT,
            PeripheralRegisters.P1DIR, PeripheralRegisters.P1IFG,
            PeripheralRegisters.P1IE, ivt_index=InterruptVectors.PORT1,
        )
        self.gpio5 = GpioPort(
            self.memory, "port5",
            PeripheralRegisters.P5IN, PeripheralRegisters.P5OUT,
            PeripheralRegisters.P5DIR, PeripheralRegisters.P5IFG,
            PeripheralRegisters.P5IE, ivt_index=InterruptVectors.PORT5,
        )
        self.timer = TimerA(self.memory)
        self.uart = Uart(self.memory)
        self.dma = DmaController(self.memory)
        self.watchdog = Watchdog(self.memory)
        self.peripherals = [
            self.gpio1, self.gpio5, self.timer, self.uart, self.dma, self.watchdog,
        ]
        for peripheral in self.peripherals:
            self.interrupt_controller.attach(peripheral)

        # --- quiescence-based fast loop wiring -------------------------
        # While every peripheral is quiescent and no interrupt is
        # pending, the step loop skips the per-step peripheral ticks and
        # interrupt arbitration entirely.  Anything that could change
        # that -- a write into the peripheral register page, a scheduled
        # event, an externally received UART byte, an injected interrupt
        # request, or a serviced one -- raises ``_periph_dirty`` again.
        self._periph_dirty = True
        peripheral_page_end = 0x01FF

        def wake(address=None, length=None, _self=self, _end=peripheral_page_end):
            if address is None or address <= _end:
                _self._periph_dirty = True

        self.memory.add_write_listener(wake)
        self.interrupt_controller.on_change = wake
        for peripheral in self.peripherals:
            peripheral.external_wake = wake
        cpu = self.cpu
        self.gpio1.cycle_source = lambda: cpu.cycle_count
        self.gpio5.cycle_source = lambda: cpu.cycle_count

        self.monitors: List[object] = []
        #: Monitors exporting ``signal_values()``; maintained by
        #: attach/detach so the step loop never probes a monitor and
        #: skips the per-step signal dict when nothing would populate it.
        self._signal_exporters: List[object] = []
        self.trace = TraceRecorder(
            enabled=self.config.trace_enabled,
            max_entries=self.config.trace_limit,
        )
        self._events: List[ScheduledEvent] = []
        #: The step of the first pending event (``_NO_EVENT`` if none):
        #: the step loop's one due-event test.  ``schedule``,
        #: ``_fire_events`` and ``reset`` keep it equal to
        #: ``_events[0].step``.
        self._next_event_step = _NO_EVENT
        self._last_step_cycles = 0
        self.step_number = 0
        #: Number of warm (PUC-style) resets triggered by watchdog expiry.
        self.watchdog_resets = 0
        #: Set when the CPU hit an illegal instruction (e.g. it was tricked
        #: into jumping through an unprogrammed interrupt vector).  A real
        #: MCU would behave unpredictably; the simulation latches the crash
        #: and stops making progress instead of raising out of the run loop.
        self.crashed = False
        self.crash_reason = ""
        #: Names the step loop for benches (see :mod:`repro.cpu.engine`).
        self.engine = InterpreterEngine()

    # ------------------------------------------------------------ setup

    def _latch_crash(self, error):
        """Latch a :class:`CPUError`: the device stops making progress."""
        self.crashed = True
        self.crash_reason = str(error)

    def attach_monitor(self, monitor):
        """Attach a hardware monitor (an object with ``observe(bundle)``)."""
        self.monitors.append(monitor)
        if hasattr(monitor, "signal_values"):
            self._signal_exporters.append(monitor)
        return monitor

    def detach_monitor(self, monitor):
        """Remove a previously attached monitor."""
        self.monitors.remove(monitor)
        if monitor in self._signal_exporters:
            self._signal_exporters.remove(monitor)

    def load_image(self, image):
        """Flash an :class:`~repro.isa.assembler.AssembledImage` into memory."""
        image.write_to(self.memory)

    def reset(self):
        """Reset peripherals, interrupt controller, CPU and monitors."""
        for peripheral in self.peripherals:
            peripheral.reset()
        # Injected (including sticky) interrupt requests and serviced
        # counts must not survive a reset, or a scenario reset would
        # immediately re-service a stale spoofed IRQ.
        self.interrupt_controller.reset()
        self.cpu.reset(stack_top=self.config.resolved_stack_top())
        for monitor in self.monitors:
            if hasattr(monitor, "reset"):
                monitor.reset()
        self.trace.clear()
        self._events = []
        self._next_event_step = _NO_EVENT
        self._last_step_cycles = 0
        self.step_number = 0
        self.watchdog_resets = 0
        self.crashed = False
        self.crash_reason = ""
        self._periph_dirty = True

    def schedule(self, step, action, label=""):
        """Schedule *action(device)* to run just before step number *step*.

        ``_events`` is kept sorted by step (stable for equal steps), so
        the step loop only compares the step number with the head's step
        (``_next_event_step``) and fired events are pruned from the front.
        """
        event = ScheduledEvent(step=step, action=action, label=label)
        events = self._events
        index = len(events)
        while index > 0 and events[index - 1].step > step:
            index -= 1
        events.insert(index, event)
        self._next_event_step = events[0].step
        return event

    def schedule_button_press(self, step, port=None, pin_mask=0x01):
        """Schedule a GPIO button press (default: port 1, pin 0)."""
        target = port or self.gpio1
        return self.schedule(
            step, lambda device: target.press_button(pin_mask), label="button-press"
        )

    def schedule_uart_rx(self, step, data):
        """Schedule the arrival of UART bytes."""
        return self.schedule(
            step, lambda device: device.uart.receive_bytes(data), label="uart-rx"
        )

    # ------------------------------------------------------------ stepping

    def step(self):
        """Advance the whole device by one step; return the signal bundle."""
        return self._run(1)[1]

    def _run(self, max_steps, stop_condition=None):
        """The simulator's step loop: run up to *max_steps* steps.

        Returns ``(executed, bundle)``: the steps run and the last bundle
        built (``None`` when none ran).  The loop stops after a step
        that crashed the device, or once *stop_condition(bundle,
        device)* is true; a crash step is not shown to the condition.

        The monitors' ``observe`` methods are looked up here, per call
        and never at attach time (:meth:`_observer`), so a wrapper put on
        a monitor class after it was attached sees every step it is shown.

        A step takes the quiet branch while ``_periph_dirty`` is clear:
        every peripheral is quiescent and no interrupt is pending, so it
        runs the CPU with no pending interrupt and has neither DMA
        activity to attach nor an interrupt to acknowledge -- only
        ``_tick_peripherals`` fills the DMA's step lists or hands the CPU
        an interrupt.

        With tracing off and one monitor attached that declares a
        ``quiet_test`` (:meth:`_quiet_monitor`), the quiet branch runs
        from the call's second step on as one :meth:`CPU.run_quiet
        <repro.cpu.core.CPU.run_quiet>` call per stretch: the CPU settles
        every step the monitor would settle, up to the call's last step
        or the step before the next due event, and builds no bundle for
        them; the monitor is not called, nor the stop condition, which is
        then the monitor's own ``finished``.  A settled step writes no
        memory and no event fires inside a stretch, so nothing can set
        ``_periph_dirty`` there.  The loop adds the settled steps to the
        step number, the trace's cycles and ``_last_step_cycles`` in one
        go (:attr:`CPU.stretch <repro.cpu.core.CPU.stretch>`).  The
        stretch's first step the monitor must see comes back as a bundle
        and goes on like any other.  No settled step crosses ER's
        boundary, so every one ran on the side of the last bundle's next
        PC; where a stretch ends without a bundle -- at a due event, a
        crash or the call's end -- the monitor's ``observe_quiet`` gets
        that PC.  A step after a due event takes the dirty branch, which
        always builds the bundle.
        """
        if self.crashed:
            if max_steps < 1:
                return 0, None
            self.step_number += 1
            return 1, self._crash_bundle()
        cpu = self.cpu
        cpu_step = cpu.step
        run_quiet = cpu.run_quiet
        dma = self.dma
        acknowledge = self.interrupt_controller.acknowledge
        observe = self._observer()
        trace = self.trace
        record = trace.record if trace.enabled else None
        exporters = self._signal_exporters
        quiet_monitor = self._quiet_monitor(stop_condition) if record is None else None
        quiet = quiet_monitor.quiet_test if quiet_monitor is not None else None
        # The quiet test the CPU gets: none on the call's first step.
        settle = None
        executed = 0
        # The last bundle built.
        bundle = None
        # Set while the steps since that bundle were settled by the CPU
        # and the monitor has not been given their side of ER.
        open_stretch = False
        while executed < max_steps:
            executed += 1
            step_number = self.step_number = self.step_number + 1
            if step_number >= self._next_event_step:
                if open_stretch:
                    quiet_monitor.observe_quiet(bundle.next_pc)
                    open_stretch = False
                self._fire_events()
            if self._periph_dirty:
                pending = self._tick_peripherals()
                try:
                    bundle = cpu_step(pending)
                except CPUError as error:
                    self._latch_crash(error)
                    return executed, self._crash_bundle()
                if dma._step_reads or dma._step_writes:
                    bundle.dma_en = True
                    bundle.dma_reads = dma._step_reads
                    bundle.dma_writes = dma._step_writes
                if bundle.irq:
                    acknowledge(bundle.irq_source)
                    self._periph_dirty = True
            elif settle is None:
                try:
                    bundle = cpu_step(None)
                except CPUError as error:
                    self._latch_crash(error)
                    return executed, self._crash_bundle()
            else:
                # One stretch: this step and the ones after it, up to the
                # call's last step or the step before the next due event.
                try:
                    ended = run_quiet(min(max_steps - executed,
                                          self._next_event_step - 1 - step_number) + 1,
                                      settle)
                except CPUError as error:
                    ended = error
                settled, settled_cycles, last = cpu.stretch
                if settled:
                    # Settled: nothing to observe, record or stop on;
                    # only their cycles are counted.
                    trace._total_cycles += settled_cycles
                    self._last_step_cycles = last
                    open_stretch = True
                    if ended is None:
                        # The limit: this iteration counted the first of
                        # them, and the stretch stays open until the next
                        # due event or the call's end.
                        executed += settled - 1
                        self.step_number = step_number + settled - 1
                        continue
                    executed += settled
                    self.step_number = step_number + settled
                if isinstance(ended, CPUError):
                    if open_stretch:
                        quiet_monitor.observe_quiet(bundle.next_pc)
                    self._latch_crash(ended)
                    return executed, self._crash_bundle()
                bundle = ended
                open_stretch = False
            cycles = self._last_step_cycles = bundle.cycles_consumed
            if observe is not None:
                observe(bundle)
            if record is None:
                # What a disabled recorder's record() does: count cycles.
                trace._total_cycles += cycles
            elif exporters:
                signals = {}
                for monitor in exporters:
                    signals.update(monitor.signal_values())
                record(bundle, signals)
            else:
                record(bundle)
            if stop_condition is not None and stop_condition(bundle, self):
                break
            settle = quiet
        if open_stretch:
            quiet_monitor.observe_quiet(bundle.next_pc)
        return executed, bundle

    def _quiet_monitor(self, stop_condition):
        """The monitor whose quiet test the step loop may apply, or
        ``None``: the one attached monitor, if it declares a
        ``quiet_test`` and *stop_condition* is ``None`` or its own
        ``finished``.  Any other stop condition is shown every step."""
        if len(self.monitors) != 1:
            return None
        monitor = self.monitors[0]
        if getattr(monitor, "quiet_test", None) is None:
            return None
        if stop_condition is not None and stop_condition != monitor.finished:
            return None
        return monitor

    def _observer(self):
        """The attached monitors' ``observe`` as one callable, looked up
        now: the one monitor's bound method, a fan-out calling several
        in attach order, or ``None`` when no monitor is attached."""
        observers = [monitor.observe for monitor in self.monitors]
        if not observers:
            return None
        if len(observers) == 1:
            return observers[0]

        def fan_out(bundle):
            for observe in observers:
                observe(bundle)

        return fan_out

    def _tick_peripherals(self):
        """Tick every peripheral by the last step's cycles; return the
        pending interrupt the CPU may accept this step (or ``None``).

        The step loop calls this only while ``_periph_dirty`` is set.
        Once nothing is pending and every peripheral is quiescent, it
        clears the flag: nothing can change until a wake signal fires
        (see the wiring in ``__init__``).
        """
        elapsed = self._last_step_cycles
        for peripheral in self.peripherals:
            peripheral.tick(elapsed)
        if self.watchdog.expired:
            # An un-serviced watchdog requests a reset; this step's
            # instruction then executes from the reset vector (and
            # an unprogrammed vector crashes the device, exactly as
            # a cold reset into zeroed memory would).
            self._watchdog_reset()
        pending = self.interrupt_controller.highest_pending()
        if pending is None and all(
            peripheral.quiescent() for peripheral in self.peripherals
        ):
            self._periph_dirty = False
        return pending

    def _publish(self, bundle, observe=True):
        """Show a bundle the step loop did not produce to every monitor,
        then record it in the trace.

        Used for a software write (:meth:`write_word_as_cpu`) and for a
        crashed device's synthetic steps; the entry carries the same
        exported signals as a step-loop entry.  ``observe=False``
        records without stepping the monitors, so the entry holds their
        current signals.
        """
        if observe:
            for monitor in self.monitors:
                monitor.observe(bundle)
        trace = self.trace
        exporters = self._signal_exporters
        if exporters and trace.enabled:
            signals = {}
            for monitor in exporters:
                signals.update(monitor.signal_values())
            trace.record(bundle, signals)
        else:
            trace.record(bundle)
        return bundle

    def _watchdog_reset(self):
        """Warm (PUC-style) reset on watchdog expiry.

        CPU, peripherals and the interrupt controller restart; memory,
        the recorded trace, the step counter and the event schedule all
        survive -- a PUC does not clear RAM or rewrite flash, and the
        scenario keeps observing the same run.  Attached monitors are
        left untouched as well: a reset forced mid-proof must not
        launder the violation history that caused (or preceded) it.
        """
        for peripheral in self.peripherals:
            peripheral.reset()
        self.interrupt_controller.reset()
        self.cpu.reset(stack_top=self.config.resolved_stack_top())
        self.watchdog_resets += 1
        self._periph_dirty = True

    def _fire_events(self):
        events = self._events
        while events and events[0].step <= self.step_number:
            event = events.pop(0)
            event.fired = True
            event.action(self)
            # Events run arbitrary actions; conservatively leave the
            # quiescent fast loop so their effects are picked up.
            self._periph_dirty = True
        # Read the list again: an action may have scheduled more events,
        # or reset the device, which replaces the list.
        events = self._events
        self._next_event_step = events[0].step if events else _NO_EVENT

    def _crash_bundle(self):
        """Synthetic bundle emitted once the device has crashed.

        It is recorded with the monitors' current signals, so waveforms
        stay complete across a crash, but the monitors do not observe
        it: a crashed core drives no bus activity for a rule to judge.
        """
        return self._publish(SignalBundle(
            cycle=self.cpu.step_count,
            pc=self.cpu.pc,
            next_pc=self.cpu.pc,
            instruction="(crashed: %s)" % self.crash_reason,
            cycles_consumed=1,
        ), observe=False)

    # ------------------------------------------------------------ running

    def run(self, max_steps=10000, stop_condition=None):
        """Run until *stop_condition(bundle, device)* is true or *max_steps*.

        Stops early after a step that crashed the device.  Returns the
        number of steps executed.
        """
        return self._run(max_steps, stop_condition)[0]

    def run_until_pc(self, address, max_steps=10000):
        """Run until the program counter reaches *address*.

        Returns ``True`` if the address was reached within *max_steps*.
        A crash before reaching the target returns ``False`` (unless the
        crash happened at the target address itself): the early stop of
        the run loop must not masquerade as success.
        """
        target = address & 0xFFFF

        def reached(bundle, _device):
            return bundle.next_pc == target or bundle.pc == target

        _, bundle = self._run(max_steps, reached)
        if self.crashed:
            # A crash step is never shown to the stop condition, so the
            # target was not reached before it.
            return self.cpu.pc == target
        return bundle is not None and reached(bundle, self)

    def run_steps(self, count):
        """Run exactly *count* steps, crashed or not.

        The step loop stops at a crash step; a crashed device's
        synthetic steps count too, so the loop is re-entered until
        *count* steps have run.
        """
        while count > 0:
            count -= self._run(count)[0]

    # ------------------------------------------------------------ helpers

    @property
    def total_cycles(self):
        """Total CPU cycles simulated so far."""
        return self.cpu.cycle_count

    def word_at(self, address):
        """Convenience: read a word without generating bus traffic."""
        return self.memory.peek_word(address)

    def write_word_as_cpu(self, address, value):
        """Perform a software (CPU-initiated) word write at the current PC.

        The write goes to memory *and* is reported to the attached
        monitors as a one-step signal bundle whose ``Wen``/``Daddr``
        reflect the access, so hardware rules such as ASAP's [AP1] see it
        exactly as they would see a ``MOV`` executed by malware.  Used by
        attack scenarios and tests to model ad-hoc software writes
        without assembling a payload.
        """
        self.memory.write_word(address, value)
        return self._publish(SignalBundle(
            cycle=self.cpu.step_count,
            pc=self.cpu.pc,
            next_pc=self.cpu.pc,
            instruction="(software write to 0x%04X)" % (address & 0xFFFF),
            writes=[MemoryWrite(address & 0xFFFE, value & 0xFFFF, 2)],
            cycles_consumed=1,
        ))
