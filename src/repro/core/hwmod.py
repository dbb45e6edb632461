"""The ASAP hardware monitor.

ASAP keeps every APEX rule *except* LTL 3 (the blanket "no interrupts
during ER") and adds [AP1], the IVT immutability rule enforced by the
:class:`~repro.core.ivt_guard.IvtGuard` FSM.  [AP2] (ISR immutability)
needs no new run-time rule: because the linker places trusted ISRs
inside ER, the existing ``er-modified`` rule already covers them, and an
*untrusted* interrupt whose handler lies outside ER trips LTL 1 when the
program counter leaves ER through a non-exit address -- exactly the
behaviour shown in the paper's Fig. 5(b).
"""

from __future__ import annotations

from repro.apex.hwmod import PoxMonitorBase
from repro.apex.regions import PoxConfig
from repro.core.ivt_guard import IvtGuard
from repro.cpu.signals import SignalBundle
from repro.memory.layout import MemoryRegion
from repro.memory.ivt import IVT_BASE, IVT_END


class AsapMonitor(PoxMonitorBase):
    """APEX monitor minus LTL 3, plus the [AP1] IVT guard."""

    architecture = "asap"

    def __init__(self, config: PoxConfig, ivt_region: MemoryRegion = None):
        super().__init__(config)
        if ivt_region is None:
            ivt_region = MemoryRegion(IVT_BASE, IVT_END, "ivt")
        self.ivt_region = ivt_region
        self.ivt_guard = IvtGuard(ivt_region, config.executable.er_min)

    # ------------------------------------------------------------ lifecycle

    def reset(self):
        super().reset()
        self.ivt_guard.reset()

    def signal_values(self):
        values = super().signal_values()
        values["IVT_GUARD_OK"] = 1 if self.ivt_guard.exec_allowed else 0
        return values

    # ------------------------------------------------------------ rules

    def _check_extra_rules(self, bundle: SignalBundle, pc_in_er):
        # [AP1] -- LTL 4: any CPU or DMA write to the IVT clears EXEC.
        # Stepping the guard FSM (Fig. 3) scans the writes once and hands
        # back the tripping write; the violation record is what actually
        # clears the monitor's EXEC bit.
        write_event = self.ivt_guard.observe(bundle)
        if write_event is not None:
            self._record(
                "ap1-ivt-modified", bundle,
                "%s write to IVT address 0x%04X"
                % (write_event.initiator.upper(), write_event.address),
            )
