"""Memory subsystem: address-space layout, byte-addressable memory and IVT.

The ASAP/APEX/VRASED hardware monitors are defined entirely in terms of
*which memory region* an access or the program counter falls into
(``ER``, ``OR``, the IVT, the attestation key, ...), so the region
algebra in :mod:`repro.memory.layout` is the vocabulary every other
subsystem speaks.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "MemoryRegion": "repro.memory.layout",
    "MemoryLayout": "repro.memory.layout",
    "Memory": "repro.memory.memory",
    "MemoryAccess": "repro.memory.memory",
    "MemoryError": "repro.memory.memory",
    "InterruptVectorTable": "repro.memory.ivt",
    "IVT_BASE": "repro.memory.ivt",
    "IVT_END": "repro.memory.ivt",
    "IVT_ENTRIES": "repro.memory.ivt",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
