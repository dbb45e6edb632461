"""The name and telemetry of the simulator's one step loop.

Every device steps through one loop, ``Device._run``
(:mod:`repro.device.mcu`): events, peripherals, ``CPU.step``, every
monitor, trace -- the observed path the hardware monitors rely on.
``Device.step`` is one iteration of it.  :class:`InterpreterEngine`
only names that loop for benches and diagnostics and feeds the
``engine.interp.instances`` gauge; it executes nothing itself.
"""

from __future__ import annotations

import weakref

from repro.obs.metrics import register_global_collector


class InterpreterEngine:
    """The decode-cached interpreter's identity for one device."""

    name = "interp"

    #: Live instances, counted by the ``engine.*`` registry collector at
    #: snapshot time, so the step loop itself never touches a registry.
    _live = weakref.WeakSet()

    def __init__(self):
        InterpreterEngine._live.add(self)

    def stats(self):
        """Engine counters for benches and diagnostics."""
        return {"engine": self.name}


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
