"""Selective linking of trusted ISRs into the executable region ([AP2]).

The paper achieves ISR immutability by giving trusted ISRs the section
label ``exec.body`` and using a modified MSP430 linker script that packs
``exec.start``, ``exec.body`` and ``exec.leave`` into the ER memory
range (Fig. 4).  :class:`ErLinker` is the Python equivalent: it measures
the assembly source's sections, places the ER sections contiguously at
the configured ER base (``exec.start`` first, ``exec.leave`` last),
places every other section outside ER, resolves the ER entry/exit
symbols, programs the IVT vectors and validates that each *trusted* ISR
really landed inside ER while *untrusted* ISRs stayed outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apex.regions import ExecutableRegion
from repro.isa.assembler import AssembledImage, Assembler
from repro.memory.layout import MemoryLayout, MemoryRegion


class LinkError(Exception):
    """Raised when firmware cannot be linked according to the ASAP rules."""


#: Section names that belong to the executable region, in placement order.
ER_SECTION_ORDER = ("exec.start", "exec.body", "exec.leave")

#: Default symbols marking the legal ER entry and exit instructions.
DEFAULT_ENTRY_SYMBOL = "ER_entry"
DEFAULT_EXIT_SYMBOL = "ER_exit"


@dataclass(frozen=True)
class IsrDescriptor:
    """One interrupt service routine known to the linker."""

    ivt_index: int
    symbol: str
    address: int
    trusted: bool

    @property
    def in_er(self):
        """Set by the linker via :class:`LinkedFirmware` helpers."""
        return self.trusted


@dataclass
class LinkedFirmware:
    """The output of :meth:`ErLinker.link`."""

    image: AssembledImage
    executable: ExecutableRegion
    isrs: List[IsrDescriptor] = field(default_factory=list)
    ivt_vectors: Dict[int, int] = field(default_factory=dict)
    reset_vector: Optional[int] = None

    @property
    def symbols(self):
        """All resolved symbols of the linked image."""
        return self.image.symbols

    def symbol(self, name):
        """Return the address of *name*.

        :raises KeyError: if the symbol is undefined.
        """
        return self.image.symbols[name]

    def trusted_isrs(self):
        """The ISRs linked inside ER."""
        return [isr for isr in self.isrs if isr.trusted]

    def untrusted_isrs(self):
        """The ISRs linked outside ER."""
        return [isr for isr in self.isrs if not isr.trusted]

    def load_into(self, device):
        """Flash the image and program the IVT on *device*."""
        self.image.write_to(device.memory)
        for index, address in self.ivt_vectors.items():
            device.ivt.set_vector(index, address)
        if self.reset_vector is not None:
            device.ivt.set_reset_vector(self.reset_vector)
        return self

    def er_bytes(self, memory):
        """Dump the ER contents from *memory* (for verifier references)."""
        return memory.dump_region(self.executable.region)


class ErLinker:
    """Places firmware sections so that trusted ISRs live inside ER."""

    def __init__(self, layout: Optional[MemoryLayout] = None, er_base=0xE000,
                 untrusted_gap=0x20, alignment=2):
        self.layout = layout or MemoryLayout.default()
        self.er_base = er_base & 0xFFFE
        self.untrusted_gap = untrusted_gap
        self.alignment = alignment
        if not self.layout.program.contains(self.er_base):
            raise LinkError(
                "ER base 0x%04X is outside program memory %s"
                % (self.er_base, self.layout.program)
            )

    # ------------------------------------------------------------ linking

    def link(self, source, trusted_isrs=None, untrusted_isrs=None,
             entry_symbol=DEFAULT_ENTRY_SYMBOL, exit_symbol=DEFAULT_EXIT_SYMBOL,
             reset_symbol=None, section_addresses=None, untrusted_base=None):
        """Assemble and place *source*; returns a :class:`LinkedFirmware`.

        ``trusted_isrs`` / ``untrusted_isrs`` map IVT indexes to symbol
        names.  Trusted handlers must end up inside ER (their sections
        should carry the ``exec.body`` label); untrusted handlers must
        end up outside.  ``reset_symbol`` programs the reset vector.
        """
        trusted_isrs = dict(trusted_isrs or {})
        untrusted_isrs = dict(untrusted_isrs or {})
        assembler = Assembler()
        sizes = assembler.measure_sections(source)

        placement = dict(section_addresses or {})
        er_span = self._place_er_sections(sizes, placement)
        self._place_other_sections(sizes, placement, er_span, untrusted_base)

        image = assembler.assemble(source, section_addresses=placement)
        executable = self._build_executable_region(
            image, er_span, entry_symbol, exit_symbol, trusted_isrs
        )
        isrs, ivt_vectors = self._resolve_isrs(
            image, executable, trusted_isrs, untrusted_isrs
        )
        reset_vector = None
        if reset_symbol is not None:
            if reset_symbol not in image.symbols:
                raise LinkError("reset symbol %r is undefined" % reset_symbol)
            reset_vector = image.symbols[reset_symbol]

        return LinkedFirmware(
            image=image,
            executable=executable,
            isrs=isrs,
            ivt_vectors=ivt_vectors,
            reset_vector=reset_vector,
        )

    # ------------------------------------------------------------ placement

    def _align(self, address):
        mask = self.alignment - 1
        return (address + mask) & ~mask & 0xFFFF

    def _place_er_sections(self, sizes, placement):
        """Place the ER sections contiguously; return the ER byte span."""
        er_sections = [name for name in ER_SECTION_ORDER if name in sizes]
        if not er_sections:
            raise LinkError(
                "source defines no ER sections (%s)" % ", ".join(ER_SECTION_ORDER)
            )
        cursor = self.er_base
        for name in er_sections:
            placement[name] = cursor
            cursor = self._align(cursor + sizes[name])
        er_end = cursor - 1
        if not self.layout.program.contains(er_end):
            raise LinkError("ER does not fit in program memory (ends at 0x%04X)" % er_end)
        return MemoryRegion(self.er_base, er_end, "ER")

    def _place_other_sections(self, sizes, placement, er_span, untrusted_base):
        """Place every non-ER, un-anchored section after the ER span."""
        cursor = untrusted_base
        if cursor is None:
            cursor = self._align(er_span.end + 1 + self.untrusted_gap)
        for name, size in sizes.items():
            if name in ER_SECTION_ORDER or name in placement:
                continue
            placement[name] = cursor
            cursor = self._align(cursor + size)
            if not self.layout.program.contains(cursor - 1):
                raise LinkError(
                    "section %r does not fit in program memory" % name
                )

    # ------------------------------------------------------------ ER geometry

    def _build_executable_region(self, image, er_span, entry_symbol, exit_symbol,
                                 trusted_isrs):
        symbols = image.symbols
        entry = symbols.get(entry_symbol, er_span.start)
        if exit_symbol in symbols:
            exit_address = symbols[exit_symbol]
        else:
            # Fall back to the last word of the last ER section.
            exit_address = er_span.end - 1 if er_span.size >= 2 else er_span.end
            exit_address &= 0xFFFE
        isr_entries = {}
        for index, symbol in trusted_isrs.items():
            if symbol not in symbols:
                raise LinkError("trusted ISR symbol %r is undefined" % symbol)
            isr_entries[index] = symbols[symbol]
        try:
            return ExecutableRegion(
                region=er_span, entry=entry, exit=exit_address, isr_entries=isr_entries
            )
        except ValueError as error:
            raise LinkError(str(error)) from error

    def _resolve_isrs(self, image, executable, trusted_isrs, untrusted_isrs):
        symbols = image.symbols
        isrs: List[IsrDescriptor] = []
        ivt_vectors: Dict[int, int] = {}

        overlap = set(trusted_isrs) & set(untrusted_isrs)
        if overlap:
            raise LinkError(
                "IVT indexes %s are declared both trusted and untrusted"
                % sorted(overlap)
            )

        for index, symbol in trusted_isrs.items():
            address = symbols[symbol]
            if not executable.contains(address):
                raise LinkError(
                    "trusted ISR %r at 0x%04X is outside ER %s -- give its "
                    "code the 'exec.body' section label" % (symbol, address, executable.region)
                )
            isrs.append(IsrDescriptor(index, symbol, address, trusted=True))
            ivt_vectors[index] = address

        for index, symbol in untrusted_isrs.items():
            if symbol not in symbols:
                raise LinkError("untrusted ISR symbol %r is undefined" % symbol)
            address = symbols[symbol]
            if executable.contains(address):
                raise LinkError(
                    "untrusted ISR %r at 0x%04X must not be linked inside ER"
                    % (symbol, address)
                )
            isrs.append(IsrDescriptor(index, symbol, address, trusted=False))
            ivt_vectors[index] = address

        return isrs, ivt_vectors
