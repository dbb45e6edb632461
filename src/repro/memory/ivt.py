"""Interrupt vector table (IVT) model.

On the openMSP430, the IVT occupies the last 32 bytes of the address
space (``0xFFE0`` .. ``0xFFFF``): sixteen 16-bit entries, one per
interrupt source, the highest-priority entry (index 15, ``0xFFFE``) being
the reset vector.  When an interrupt fires, the CPU reads the entry for
the triggering source and jumps to the address it contains -- which is
exactly why ASAP's [AP1] property protects this region from writes during
a proof of execution (paper Section 4.2, LTL 4).
"""

from __future__ import annotations

from typing import Dict, List

from repro.memory.layout import MemoryRegion

IVT_BASE = 0xFFE0
IVT_END = 0xFFFF
IVT_ENTRIES = 16
RESET_VECTOR_INDEX = 15


class InterruptVectorTable:
    """Read/write view of the IVT stored in a :class:`~repro.memory.Memory`."""

    def __init__(self, memory, base=IVT_BASE, entries=IVT_ENTRIES):
        self._memory = memory
        self._base = base
        self._entries = entries

    @property
    def base(self):
        """The base address of the table."""
        return self._base

    @property
    def entries(self):
        """Number of vectors in the table."""
        return self._entries

    @property
    def region(self):
        """The :class:`MemoryRegion` covered by the table."""
        return MemoryRegion(self._base, self._base + 2 * self._entries - 1, "ivt")

    def entry_address(self, index):
        """Return the address of vector *index*.

        :raises IndexError: if *index* is outside the table.
        """
        if not 0 <= index < self._entries:
            raise IndexError("IVT index out of range: %r" % (index,))
        return self._base + 2 * index

    def index_of(self, address):
        """Return the vector index stored at *address*.

        :raises ValueError: if *address* is not inside the table.
        """
        if not self.region.contains(address):
            raise ValueError("address 0x%04X is not in the IVT" % address)
        return ((address & 0xFFFE) - self._base) // 2

    def get_vector(self, index):
        """Return the handler address programmed for vector *index*."""
        return self._memory.peek_word(self.entry_address(index))

    def set_vector(self, index, handler_address):
        """Program vector *index* to point at *handler_address*.

        A load-time store, modelling firmware flashing: no bus traffic,
        so no monitor sees it.  A run-time software write that the ASAP
        IVT guard must flag goes through
        :meth:`~repro.device.mcu.Device.write_word_as_cpu` instead.
        """
        self._memory.load_word(self.entry_address(index), handler_address & 0xFFFF)

    def set_reset_vector(self, handler_address):
        """Program the reset vector (index 15)."""
        self.set_vector(RESET_VECTOR_INDEX, handler_address)

    def get_reset_vector(self):
        """Return the reset vector value."""
        return self.get_vector(RESET_VECTOR_INDEX)

    def snapshot(self):
        """Return the table contents as a list of handler addresses."""
        return [self.get_vector(index) for index in range(self._entries)]

    def as_dict(self):
        """Return ``{index: handler address}`` for all non-zero vectors."""
        table: Dict[int, int] = {}
        for index in range(self._entries):
            value = self.get_vector(index)
            if value:
                table[index] = value
        return table

    def vectors_pointing_into(self, region):
        """Return the vector indexes whose handler lies inside *region*.

        This is the verifier-side check ASAP's security argument relies
        on: every IVT entry pointing inside ER must correspond to the
        entry point of an intended ISR.
        """
        matches: List[int] = []
        for index in range(self._entries):
            if region.contains(self.get_vector(index)):
                matches.append(index)
        return matches
