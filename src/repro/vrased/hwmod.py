"""The VRASED hardware monitor (HW-Mod), modelled behaviourally.

The monitor enforces the access-control and atomicity rules that make
the software attestation routine trustworthy even under full software
compromise.  Each rule is checked against the per-step signal bundle;
a failed rule produces a :class:`Violation` record and, as on the real
device, marks the monitor as *tripped* (the hardware would reset the
MCU -- the device harness and the protocol layer consult
:attr:`VrasedMonitor.violated`).

Rules (paraphrasing the VRASED sub-properties ASAP inherits):

``key-access``        the key is only readable while PC is in SW-Att.
``key-dma``           DMA never touches the key.
``key-write``         nothing ever writes the key region at run time.
``swatt-entry``       SW-Att is entered only at its first instruction.
``swatt-exit``        SW-Att is left only from its last instruction.
``swatt-interrupt``   SW-Att execution is never interrupted.
``swatt-dma``         DMA is inactive while SW-Att executes.
``swatt-write``       SW-Att code is never modified at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cpu.signals import SignalBundle
from repro.vrased.config import VrasedConfig


@dataclass(frozen=True)
class Violation:
    """A single detected rule violation."""

    rule: str
    step: int
    detail: str = ""


class VrasedMonitor:
    """Behavioural model of the VRASED hardware module."""

    def __init__(self, config: VrasedConfig):
        self.config = config
        self.violations: List[Violation] = []
        self._reset_pending = False

    # ------------------------------------------------------------ state

    @property
    def violated(self):
        """``True`` once any rule has been violated."""
        return bool(self.violations)

    @property
    def reset_pending(self):
        """``True`` when the monitor has requested an MCU reset."""
        return self._reset_pending

    def reset(self):
        """Clear the monitor state (models an MCU reset)."""
        self.violations = []
        self._reset_pending = False

    def signal_values(self):
        """Signals exported into execution traces."""
        return {
            "VRASED_OK": 0 if self.violated else 1,
        }

    # ------------------------------------------------------------ rules

    def observe(self, bundle: SignalBundle):
        """Check every rule against one signal bundle."""
        key = self.config.key_region
        swatt = self.config.swatt_region
        pc_in_swatt = swatt.contains(bundle.pc)

        if bundle.reads_from(key) and not pc_in_swatt:
            self._record("key-access", bundle, "key read with PC outside SW-Att")
        if bundle.dma_touches(key):
            self._record("key-dma", bundle, "DMA access to key region")
        if bundle.writes_into(key) or bundle.dma_writes_into(key):
            self._record("key-write", bundle, "write to key region")

        if bundle.writes_into(swatt) or bundle.dma_writes_into(swatt):
            self._record("swatt-write", bundle, "write to SW-Att code")

        entering_next = not pc_in_swatt and swatt.contains(bundle.next_pc)
        if entering_next and bundle.next_pc != swatt.start:
            self._record(
                "swatt-entry", bundle,
                "SW-Att entered at 0x%04X, not its first instruction" % bundle.next_pc,
            )
        if pc_in_swatt:
            if bundle.irq:
                self._record("swatt-interrupt", bundle, "interrupt during SW-Att")
            if bundle.dma_en:
                self._record("swatt-dma", bundle, "DMA active during SW-Att")
            leaving = not swatt.contains(bundle.next_pc)
            if leaving and not self._legal_swatt_exit(bundle.pc):
                self._record(
                    "swatt-exit", bundle,
                    "SW-Att left from 0x%04X, not its last instruction" % bundle.pc,
                )

    def _legal_swatt_exit(self, pc):
        """Return ``True`` if *pc* is the legal SW-Att exit point.

        The configuration may pin the exact exit address via
        ``swatt_exit``; otherwise any address within the last two words
        of the region is accepted (the return instruction of the
        routine), which keeps the behavioural model independent of the
        exact SW-Att stub length.
        """
        exit_address = getattr(self.config, "swatt_exit", None)
        if exit_address is not None:
            return pc == exit_address
        return self.config.swatt_region.end - pc <= 3

    def _record(self, rule, bundle, detail):
        self.violations.append(Violation(rule=rule, step=bundle.cycle, detail=detail))
        if self.config.reset_on_violation:
            self._reset_pending = True

    # ------------------------------------------------------------ queries

    def violations_for(self, rule):
        """Return all violations of a particular *rule*."""
        return [violation for violation in self.violations if violation.rule == rule]

    def first_violation(self) -> Optional[Violation]:
        """Return the earliest violation, or ``None``."""
        return self.violations[0] if self.violations else None
