"""Execution trace recording and waveform rendering.

The paper's Fig. 5 presents simulation waveforms of ``ER_min``,
``ER_max``, ``EXEC``, ``irq`` and ``PC`` for three interrupt-handling
scenarios.  :class:`TraceRecorder` captures the equivalent per-step
samples from the simulator (CPU signals plus whatever signals the
attached monitors export), and :class:`Waveform` turns them into
series and an ASCII rendering that the benches print.

Every entry carries every signal the attached monitors export after
observing its step, so a waveform never misses a sample.  Executed
steps are recorded by the device's step loop (``Device._run``);
software writes and a crashed device's synthetic steps by
``Device._publish``, which collects the signals the same way.  With
recording disabled, the step loop does what :meth:`TraceRecorder.record`
would: it counts the step's cycles and keeps no entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro._compat import DATACLASS_SLOTS
from repro.cpu.signals import SignalBundle


@dataclass(**DATACLASS_SLOTS)
class TraceEntry:
    """One recorded simulation step."""

    step: int
    cycle: int
    pc: int
    next_pc: int
    irq: bool
    irq_source: Optional[int]
    instruction: Optional[str]
    monitor_signals: Dict[str, int] = field(default_factory=dict)

    def signal(self, name):
        """Return a named signal value from this entry.

        Built-in names: ``PC``, ``next_PC``, ``irq``, ``cycle``; anything
        else is looked up among the monitor-exported signals.
        """
        if name == "PC":
            return self.pc
        if name == "next_PC":
            return self.next_pc
        if name == "irq":
            return int(self.irq)
        if name == "cycle":
            return self.cycle
        return self.monitor_signals[name]


class TraceRecorder:
    """Accumulates :class:`TraceEntry` records during a simulation run.

    ``max_entries`` turns the recorder into a bounded ring buffer: only
    the most recent *N* entries are kept and ``dropped`` counts how many
    older ones were discarded, so long crashed or soak runs can record
    forever without growing memory without limit.
    """

    def __init__(self, enabled=True, max_entries=None):
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive or None")
        self.enabled = enabled
        self.max_entries = max_entries
        self.entries = self._make_buffer()
        self.dropped = 0
        self._total_cycles = 0

    def _make_buffer(self):
        if self.max_entries is None:
            return []
        return deque(maxlen=self.max_entries)

    def record(self, bundle: SignalBundle, monitor_signals=None):
        """Record one step from *bundle* plus monitor-exported signals.

        A disabled recorder keeps no entry but still counts the step's
        cycles, so :attr:`total_cycles` is the same with tracing on or
        off.
        """
        self._total_cycles += bundle.cycles_consumed
        if not self.enabled:
            return
        if self.max_entries is not None and len(self.entries) == self.max_entries:
            self.dropped += 1
        self.entries.append(
            TraceEntry(
                step=bundle.cycle,
                cycle=self._total_cycles,
                pc=bundle.pc,
                next_pc=bundle.next_pc,
                irq=bundle.irq,
                irq_source=bundle.irq_source,
                instruction=bundle.instruction,
                monitor_signals=dict(monitor_signals or {}),
            )
        )

    def clear(self):
        """Drop all recorded entries."""
        self.entries = self._make_buffer()
        self.dropped = 0
        self._total_cycles = 0

    @property
    def total_cycles(self):
        """Total simulated CPU cycles recorded."""
        return self._total_cycles

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    # ------------------------------------------------------------ queries

    def series(self, name):
        """Return the full series of signal *name* across the trace."""
        return [entry.signal(name) for entry in self.entries]

    def find_first(self, predicate):
        """Return the first entry satisfying *predicate*, or ``None``."""
        for entry in self.entries:
            if predicate(entry):
                return entry
        return None

    def steps_with_irq(self):
        """Return the entries in which an interrupt was accepted."""
        return [entry for entry in self.entries if entry.irq]

    def waveform(self, signals):
        """Return a :class:`Waveform` restricted to *signals*."""
        return Waveform(self, list(signals))


class Waveform:
    """A named set of signal series extracted from a trace."""

    def __init__(self, trace: TraceRecorder, signals: Sequence[str]):
        self.signal_names = list(signals)
        self.samples: Dict[str, List[int]] = {
            name: trace.series(name) for name in self.signal_names
        }
        self.length = len(trace)

    def series(self, name):
        """Return the sample series of signal *name*."""
        return self.samples[name]

    def value_at(self, name, step_index):
        """Return the value of *name* at a step index."""
        return self.samples[name][step_index]

    def transitions(self, name):
        """Return ``(index, old, new)`` for every change of signal *name*."""
        series = self.samples[name]
        out = []
        for index in range(1, len(series)):
            if series[index] != series[index - 1]:
                out.append((index, series[index - 1], series[index]))
        return out

    def final_value(self, name):
        """Return the last sample of *name* (or ``None`` for empty traces)."""
        series = self.samples[name]
        return series[-1] if series else None

    def to_ascii(self, max_width=72):
        """Render the waveform as ASCII art (one row per signal).

        Binary signals render as ``_`` / ``▔``; multi-valued signals
        (e.g. ``PC``) render their changes as hexadecimal annotations on
        a marker row.
        """
        if not self.length:
            return "(empty waveform)"
        stride = max(1, (self.length + max_width - 1) // max_width)
        lines = []
        for name in self.signal_names:
            series = self.samples[name][::stride]
            values = set(self.samples[name])
            if values <= {0, 1}:
                body = "".join("▔" if value else "_" for value in series)
                lines.append("%-8s %s" % (name, body))
            else:
                markers = []
                changes = []
                previous = None
                for column, value in enumerate(series):
                    changed = value != previous
                    markers.append("|" if changed else ".")
                    # Annotate with the *sampled* step index (column *
                    # stride) so the label matches the marker column even
                    # when the series is strided down to fit max_width.
                    if changed and previous is not None:
                        changes.append((column * stride, value))
                    previous = value
                lines.append("%-8s %s" % (name, "".join(markers)))
                annotation = ", ".join(
                    "step %d: 0x%04X" % (step, new) for step, new in changes[:8]
                )
                if annotation:
                    lines.append("         (%s)" % annotation)
        return "\n".join(lines)

    def to_rows(self):
        """Return a list of per-step dicts (step index plus every signal)."""
        rows = []
        for index in range(self.length):
            row = {"step": index}
            for name in self.signal_names:
                row[name] = self.samples[name][index]
            rows.append(row)
        return rows
