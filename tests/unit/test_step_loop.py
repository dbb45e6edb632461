"""The fused step loop's contract with the monitors, and the quiet step.

``Device._run`` looks each monitor's ``observe`` up once per run call,
never at attach time, so a wrapper put on a monitor class after the
testbench was built (as a profiler or a benchmark does) still sees every
step.  ``PoxMonitorBase.observe`` settles a quiet step -- no CPU or DMA
write, ``dma_en`` low, no irq, PC and next PC on the same side of ER,
PC not ``ER_min`` -- right after its PC tests; a step that differs from
a quiet one in any single one of those signals must still run the
rules.
"""

import pytest

from repro.apex.hwmod import ApexMonitor
from repro.core.hwmod import AsapMonitor
from repro.cpu.signals import MemoryWrite, SignalBundle

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
