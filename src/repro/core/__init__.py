"""ASAP: the Architecture for Secure Asynchronous Processing in PoX.

This package is the reproduction of the paper's contribution.  ASAP
modifies APEX so that *trusted* interrupts can be serviced during a
provable execution without invalidating the proof:

* APEX's LTL 3 ("any interrupt during ER clears EXEC") is **removed**;
* **[AP1]** a small two-state hardware FSM (:class:`IvtGuard`, paper
  Fig. 3) clears EXEC whenever the CPU or DMA writes the interrupt
  vector table, so the attested IVT faithfully describes which handler
  each interrupt source can reach (paper LTL 4);
* **[AP2]** trusted ISRs are linked *inside* the executable region by
  :class:`ErLinker` (the Python equivalent of the paper's Fig. 4 linker
  script), so APEX's existing ER immutability also covers them and an
  authorized interrupt keeps the program counter inside ER;
* the PoX report additionally covers the IVT, and
  :class:`AsapPoxVerifier` checks that every IVT entry pointing into ER
  is the entry point of an intended ISR.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "IvtGuard": "repro.core.ivt_guard",
    "IvtGuardState": "repro.core.ivt_guard",
    "AsapMonitor": "repro.core.hwmod",
    "ErLinker": "repro.core.linker",
    "LinkedFirmware": "repro.core.linker",
    "IsrDescriptor": "repro.core.linker",
    "LinkError": "repro.core.linker",
    "AsapPoxProtocol": "repro.core.pox",
    "AsapPoxVerifier": "repro.core.pox",
    "IVT_SNAPSHOT": "repro.core.pox",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
