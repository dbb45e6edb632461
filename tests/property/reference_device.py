"""The device step loop the fused ``Device._run`` replaced, kept as a
test oracle.

:class:`ReferenceDevice` is :class:`repro.device.mcu.Device` with the
step loop it had before the loop was fused into one method:
:meth:`step` runs one step and hands the bundle to :meth:`_publish`,
which shows it to every monitor and records it, and :meth:`run`,
:meth:`run_until_pc` and :meth:`run_steps` call :meth:`step` once per
step.  The five methods are copied here unchanged, so that
``test_property_device_oracle.py`` can run both loops from identical
starts and compare them call by call.  Everything else -- events,
peripherals, the crash latch and the watchdog reset -- is inherited.
"""

from repro.cpu.core import CPUError
from repro.device.mcu import Device


class ReferenceDevice(Device):
    """The device with its per-step ``step`` -> ``_publish`` loop."""

    # ------------------------------------------------------------ stepping

    def step(self):
        """Advance the whole device by one step; return the signal bundle."""
        self.step_number += 1
        if self.crashed:
            return self._crash_bundle()
        events = self._events
        if events and events[0].step <= self.step_number:
            self._fire_events()

        if self._periph_dirty:
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
                # Nothing can change until a wake signal fires; stop
                # ticking (see the wiring in __init__).
                self._periph_dirty = False
        else:
            pending = None
        try:
            bundle = self.cpu.step(pending)
        except CPUError as error:
            self._latch_crash(error)
            return self._crash_bundle()
        self._last_step_cycles = bundle.cycles_consumed

        dma = self.dma
        if dma._step_reads or dma._step_writes:
            bundle.dma_en = True
            bundle.dma_reads = dma._step_reads
            bundle.dma_writes = dma._step_writes

        if bundle.irq:
            self.interrupt_controller.acknowledge(bundle.irq_source)
            self._periph_dirty = True

        return self._publish(bundle)

    def _publish(self, bundle, observe=True):
        """Show *bundle* to every monitor, then record it in the trace.

        The trace entry carries the signals the exporting monitors report
        after observing; with tracing off nothing would keep them, so
        they are not collected.  ``observe=False`` records without
        stepping the monitors, so the entry holds their current signals.
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

    # ------------------------------------------------------------ running

    def run(self, max_steps=10000, stop_condition=None):
        """Run until *stop_condition(bundle, device)* is true or *max_steps*.

        Returns the number of steps executed.
        """
        executed = 0
        step = self.step
        for _ in range(max_steps):
            bundle = step()
            executed += 1
            if self.crashed:
                break
            if stop_condition is not None and stop_condition(bundle, self):
                break
        return executed

    def run_until_pc(self, address, max_steps=10000):
        """Run until the program counter reaches *address*.

        Returns ``True`` if the address was reached within *max_steps*.
        A crash before reaching the target returns ``False`` (unless the
        crash happened at the target address itself): the early ``break``
        of the run loop must not masquerade as success.
        """
        target = address & 0xFFFF
        found = False

        def reached(bundle, _device):
            nonlocal found
            if bundle.next_pc == target or bundle.pc == target:
                found = True
            return found

        self.run(max_steps=max_steps, stop_condition=reached)
        if self.crashed:
            return found or self.cpu.pc == target
        return found

    def run_steps(self, count):
        """Run exactly *count* steps, crashed or not."""
        step = self.step
        for _ in range(count):
            step()
