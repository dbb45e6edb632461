"""Per-cycle signal bundle observed by the hardware monitors.

The paper's LTL properties are stated over a small set of MCU signals
(Section 4.2):

* ``PC`` -- the program counter,
* ``irq`` -- the interrupt-request line,
* ``Wen`` / ``Daddr`` -- CPU data-write enable and address,
* ``DMAen`` / ``DMAaddr`` -- DMA transfer enable and address,
* plus, for the underlying VRASED guarantees, the data-read address.

A :class:`SignalBundle` carries the values of those signals for one
simulated step, including the *next* program-counter value so that
``X(PC)``-style properties (LTL 1 and 2) can be evaluated directly.

Each bus access of a step is one :class:`MemoryRead` or
:class:`MemoryWrite`: a ``typing.NamedTuple`` of ``(address, value,
size=2)``.  A step builds one per access (a ``pox`` exchange builds
532), so they are tuples rather than frozen dataclasses, which cost
about twice as much to build.  They stay immutable, hashable and equal
by value; being tuples, a read and a write with the same fields also
compare equal, which nothing relies on -- a bundle keeps them in
separate fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

from repro._compat import DATACLASS_SLOTS


class MemoryWrite(NamedTuple):
    """One data-memory write performed during a step."""

    address: int
    value: int
    size: int = 2


class MemoryRead(NamedTuple):
    """One data-memory read performed during a step."""

    address: int
    value: int
    size: int = 2


@dataclass(**DATACLASS_SLOTS)
class SignalBundle:
    """The monitor-visible signals for a single simulated step.

    ``pc`` is the program counter at the start of the step (the address
    of the instruction being executed, or the interrupted instruction
    when the step is an interrupt entry); ``next_pc`` is its value after
    the step.  ``irq`` is asserted on the step in which the CPU accepts
    an interrupt; ``irq_source`` identifies the IVT index being serviced.
    ``gie`` reports the general-interrupt-enable bit *before* the step.
    DMA activity performed concurrently with the step is reported via
    ``dma_en`` / ``dma_writes``.
    """

    # The access sequences default to a shared empty tuple rather than a
    # fresh list: bundles are created once per simulated step, and the
    # common no-access step should not allocate four empty lists.
    cycle: int = 0
    pc: int = 0
    next_pc: int = 0
    irq: bool = False
    irq_source: Optional[int] = None
    gie: bool = False
    cpu_off: bool = False
    reset: bool = False
    instruction: Optional[str] = None
    writes: Sequence[MemoryWrite] = ()
    reads: Sequence[MemoryRead] = ()
    dma_en: bool = False
    dma_writes: Sequence[MemoryWrite] = ()
    dma_reads: Sequence[MemoryRead] = ()
    cycles_consumed: int = 1

    # ----------------------------------------------------- monitor helpers

    @property
    def wen(self):
        """``True`` when the CPU wrote data memory during this step."""
        return bool(self.writes)

    @property
    def write_addresses(self):
        """Addresses of every byte written by the CPU this step."""
        return _expand_addresses(self.writes)

    @property
    def read_addresses(self):
        """Addresses of every byte read by the CPU this step."""
        return _expand_addresses(self.reads)

    @property
    def dma_addresses(self):
        """Addresses of every byte touched by DMA this step."""
        return _expand_addresses(self.dma_writes) + _expand_addresses(self.dma_reads)

    @property
    def dma_write_addresses(self):
        """Addresses of every byte written by DMA this step."""
        return _expand_addresses(self.dma_writes)

    def writes_into(self, region):
        """``True`` if any CPU write touched *region*."""
        return first_byte_in(self.writes, region) is not None

    def reads_from(self, region):
        """``True`` if any CPU read touched *region*."""
        return first_byte_in(self.reads, region) is not None

    def dma_touches(self, region):
        """``True`` if any DMA access (read or write) touched *region*."""
        return (first_byte_in(self.dma_writes, region) is not None
                or first_byte_in(self.dma_reads, region) is not None)

    def dma_writes_into(self, region):
        """``True`` if any DMA write touched *region*."""
        return first_byte_in(self.dma_writes, region) is not None


def _expand_addresses(accesses):
    """Expand a list of sized accesses into individual byte addresses."""
    out: List[int] = []
    for access in accesses:
        for offset in range(access.size):
            out.append((access.address + offset) & 0xFFFF)
    return out


def first_byte_in(accesses, region):
    """The first byte of *accesses* that lies in *region*, or ``None``.

    Bytes are taken in the order :func:`_expand_addresses` lists them:
    access by access, each from ``address`` upwards for ``size`` bytes,
    wrapping at 64 KiB.  Each access's span ``[address, address + size
    - 1]`` is compared with the region's inclusive bounds, so no byte
    list is built.
    """
    start = region.start
    end = region.end
    for access in accesses:
        size = access.size
        if size <= 0:
            continue
        first = access.address & 0xFFFF
        last = first + size - 1
        if first <= end and start <= last:
            return first if first > start else start
        if last > 0xFFFF and start <= last - 0x10000:
            # The span wraps past 0xFFFF and reaches the region from 0.
            return start
    return None
