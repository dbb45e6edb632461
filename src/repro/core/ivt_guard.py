"""The IVT-guard FSM: ASAP's [AP1] property (paper Fig. 3, LTL 4).

The FSM has two states:

* ``RUN`` -- no IVT tampering observed; the guard does not constrain
  the EXEC flag.
* ``NOT_EXEC`` -- a CPU or DMA write to the IVT was observed; EXEC must
  be 0 until a fresh execution starts at ``ER_min``.

Transitions (exactly the edges of Fig. 3):

* ``RUN -> NOT_EXEC`` when ``(Wen ∧ Daddr ∈ IVT) ∨ (DMAen ∧ DMAaddr ∈ IVT)``;
* ``NOT_EXEC -> RUN`` when ``PC = ER_min`` and no IVT write happens in
  the same cycle;
* otherwise each state loops to itself.

The ASAP monitor steps the guard on every step it does not settle as
quiet (:mod:`repro.apex.hwmod`): a quiet step carries no write and has
its PC off ``ER_min``, so it can take neither edge.  A step that carries
no CPU or DMA write cannot trip the guard, so only the
``NOT_EXEC -> RUN`` edge is tested there; on a step with writes, each
write's byte span is compared with the IVT bounds
(:func:`~repro.cpu.signals.first_byte_in`).

The LTL model checker verifies LTL 4 against the Kripke model
``build_ivt_guard_model`` (:mod:`repro.ltl.properties`), and the
hardware-cost model counts the FSM's LUTs/registers for the Fig. 6
comparison (:mod:`repro.hwcost.monitors`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.cpu.signals import SignalBundle, first_byte_in
from repro.memory.layout import MemoryRegion


class IvtGuardState(enum.Enum):
    """The two FSM states of Fig. 3."""

    RUN = "Run"
    NOT_EXEC = "NotExec"


@dataclass(frozen=True)
class IvtWriteEvent:
    """A detected write to the IVT (what tripped the guard)."""

    step: int
    initiator: str
    address: int


class IvtGuard:
    """Behavioural model of the verified Fig. 3 FSM."""

    def __init__(self, ivt_region: MemoryRegion, er_min: int):
        self.ivt_region = ivt_region
        self.er_min = er_min & 0xFFFF
        self.state = IvtGuardState.RUN
        self.events: List[IvtWriteEvent] = []

    # ------------------------------------------------------------ lifecycle

    def reset(self):
        """Return to the ``RUN`` state and clear the event log."""
        self.state = IvtGuardState.RUN
        self.events = []

    @property
    def exec_allowed(self):
        """``True`` while the guard permits ``EXEC = 1``."""
        return self.state is IvtGuardState.RUN

    @property
    def tripped(self):
        """``True`` if the guard has ever observed IVT tampering."""
        return bool(self.events)

    # ------------------------------------------------------------ transition

    def ivt_write_in(self, bundle: SignalBundle):
        """Return the first IVT write in *bundle*, or ``None``.

        Implements the Fig. 3 trigger condition
        ``(Wen ∧ Daddr ∈ IVT) ∨ (DMAen ∧ DMAaddr ∈ IVT)``.  The event
        names the first IVT byte of the first tripping CPU write, else
        of the first tripping DMA write.
        """
        address = first_byte_in(bundle.writes, self.ivt_region)
        if address is not None:
            return IvtWriteEvent(bundle.cycle, "cpu", address)
        address = first_byte_in(bundle.dma_writes, self.ivt_region)
        if address is not None:
            return IvtWriteEvent(bundle.cycle, "dma", address)
        return None

    def observe(self, bundle: SignalBundle) -> Optional[IvtWriteEvent]:
        """Advance the FSM by one cycle.

        Returns the IVT write that tripped the guard this cycle, or
        ``None``: the caller acts on the same single scan of the
        bundle's write lists that drove the transition.
        """
        if bundle.writes or bundle.dma_writes:
            write_event = self.ivt_write_in(bundle)
            if write_event is not None:
                self.events.append(write_event)
                self.state = IvtGuardState.NOT_EXEC
                return write_event
        if self.state is IvtGuardState.NOT_EXEC and bundle.pc == self.er_min:
            self.state = IvtGuardState.RUN
        return None
