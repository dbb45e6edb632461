"""The batched step loop behind :meth:`repro.device.mcu.Device.run_batch`.

:class:`InterpreterEngine` holds the two chunk loops that run a
quiescent stretch of steps -- no event due, peripherals idle, no
interrupt pending -- on top of the decode-cached
:class:`~repro.cpu.core.CPU` step methods:

* :meth:`InterpreterEngine.quiescent_chunk` steps with monitors
  attached or tracing on: every step still builds its signal bundle,
  feeds each monitor and lands in the trace;
* :meth:`InterpreterEngine.silent_chunk` is the observer-free path: no
  monitor, no trace, so no bundle is materialised at all.

Both are pinned indistinguishable from calling ``Device.step`` in a
loop (``tests/unit/test_run_batch.py``,
``tests/property/test_property_run_batch.py``).
"""

from __future__ import annotations

import weakref

from repro.cpu.core import CPU, CPUError
from repro.obs.metrics import register_global_collector


class InterpreterEngine:
    """The decode-cached interpreter's chunk loops for one device."""

    name = "interp"

    #: Live instances, counted by the ``engine.*`` registry collector at
    #: snapshot time, so the step loop itself never touches a registry.
    _live = weakref.WeakSet()

    def __init__(self, device):
        self.device = device
        self.cpu: CPU = device.cpu
        InterpreterEngine._live.add(self)

    def stats(self):
        """Engine counters for benches and diagnostics."""
        return {"engine": self.name}

    def quiescent_chunk(self, chunk):
        """Up to *chunk* observed steps inside a quiescent stretch.

        Preconditions (established by ``Device.run_batch``): the device
        has not crashed, no scheduled event is due within *chunk* steps,
        and the peripherals are quiescent with no interrupt pending.
        Returns the number of steps executed.
        """
        device = self.device
        monitors = device.monitors
        if not monitors and not device.trace.enabled:
            return self.silent_chunk(chunk)
        cpu_step_quiet = self.cpu.step_quiet
        exporters = device._signal_exporters
        record = device.trace.record
        dma = device.dma
        executed = 0
        while executed < chunk:
            if device._periph_dirty:
                break
            device.step_number += 1
            try:
                bundle = cpu_step_quiet()
            except CPUError as error:
                device._latch_crash(error)
                device._crash_bundle()
                executed += 1
                break
            device._last_step_cycles = bundle.cycles_consumed
            if dma._step_reads or dma._step_writes:
                bundle.dma_en = True
                bundle.dma_reads = dma._step_reads
                bundle.dma_writes = dma._step_writes
            if exporters:
                monitor_signals = {}
                for monitor in monitors:
                    monitor.observe(bundle)
                for monitor in exporters:
                    monitor_signals.update(monitor.signal_values())
                record(bundle, monitor_signals)
            else:
                for monitor in monitors:
                    monitor.observe(bundle)
                record(bundle)
            executed += 1
        return executed

    def silent_chunk(self, chunk):
        """Up to *chunk* observer-free steps (no monitors, no tracing)."""
        device = self.device
        cpu_step_silent = self.cpu.step_silent
        executed = 0
        cycles_total = 0
        last_cycles = device._last_step_cycles
        try:
            while executed < chunk and not device._periph_dirty:
                device.step_number += 1
                last_cycles = cpu_step_silent()
                cycles_total += last_cycles
                executed += 1
        except CPUError as error:
            device._latch_crash(error)
            device._last_step_cycles = last_cycles
            device.trace.count_cycles(cycles_total)
            device._crash_bundle()
            return executed + 1
        device._last_step_cycles = last_cycles
        device.trace.count_cycles(cycles_total)
        return executed


def engine_name():
    """The name of the step loop every device runs (always ``"interp"``)."""
    return InterpreterEngine.name


@register_global_collector
def _collect_engine_metrics(registry):
    """Publish ``engine.interp.instances``, the number of live engines.

    Snapshot-on-read: the gauge materialises when a registry snapshot
    asks for it, never from the step loop.
    """
    registry.gauge("engine.interp.instances").set(len(InterpreterEngine._live))
