"""Region geometry for proofs of execution.

APEX parameterises a PoX with three configurable regions:

* the **executable region** (ER): the code whose execution is proved,
  delimited by ``ER_min`` (legal entry, first instruction) and
  ``ER_max`` (legal exit, last instruction),
* the **output region** (OR): where the executable deposits the outputs
  that the proof binds to the execution,
* the **metadata region**: where the challenge and the ER/OR boundary
  parameters live so that they are covered by the attestation.

ASAP keeps exactly the same geometry and additionally requires the
trusted ISRs to be *inside* ER (property [AP2]); the
:class:`ExecutableRegion` therefore records the entry points of the
ISRs the linker placed inside it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.memory.layout import MemoryLayout, MemoryRegion


@dataclass(frozen=True)
class ExecutableRegion:
    """The executable region: byte span plus legal entry/exit points."""

    region: MemoryRegion
    entry: int
    exit: int
    #: Entry addresses of trusted ISRs linked inside ER, keyed by IVT index.
    isr_entries: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.region.contains(self.entry):
            raise ValueError("ER entry 0x%04X outside %s" % (self.entry, self.region))
        if not self.region.contains(self.exit):
            raise ValueError("ER exit 0x%04X outside %s" % (self.exit, self.region))
        for index, address in self.isr_entries.items():
            if not self.region.contains(address):
                raise ValueError(
                    "ISR for IVT index %d at 0x%04X lies outside %s"
                    % (index, address, self.region)
                )

    @property
    def er_min(self):
        """The paper's ``ER_min`` -- the legal entry address."""
        return self.entry

    @property
    def er_max(self):
        """The paper's ``ER_max`` -- the legal exit address."""
        return self.exit

    def contains(self, address):
        """``True`` if *address* lies inside the region's byte span."""
        return self.region.contains(address)

    @staticmethod
    def spanning(start, end, entry=None, exit=None, isr_entries=None):
        """Build an ER covering ``[start, end]`` with optional entry/exit."""
        region = MemoryRegion(start, end, "ER")
        return ExecutableRegion(
            region=region,
            entry=start if entry is None else entry,
            exit=end if exit is None else exit,
            isr_entries=dict(isr_entries or {}),
        )


@dataclass(frozen=True)
class OutputRegion:
    """The output region the proof binds to the execution."""

    region: MemoryRegion

    @staticmethod
    def spanning(start, end):
        """Build an OR covering ``[start, end]``."""
        return OutputRegion(MemoryRegion(start, end, "OR"))

    def contains(self, address):
        """``True`` if *address* lies inside the output region."""
        return self.region.contains(address)


@dataclass(frozen=True)
class MetadataRegion:
    """Where the challenge and the ER/OR parameters are stored on the prover."""

    region: MemoryRegion

    #: Fixed layout inside the region: 32-byte challenge then four
    #: 16-bit words (ER_min, ER_max, OR_start, OR_end).
    CHALLENGE_OFFSET = 0
    CHALLENGE_LENGTH = 32
    PARAMS_OFFSET = 32
    SIZE = 32 + 8

    @staticmethod
    def at(start):
        """Build a metadata region starting at *start*."""
        return MetadataRegion(MemoryRegion(start, start + MetadataRegion.SIZE - 1, "META"))

    def write(self, memory, challenge, executable: ExecutableRegion, output: OutputRegion):
        """Store the challenge and geometry into device memory (load-time)."""
        if len(challenge) != self.CHALLENGE_LENGTH:
            raise ValueError("challenge must be %d bytes" % self.CHALLENGE_LENGTH)
        memory.load_bytes(self.region.start + self.CHALLENGE_OFFSET, challenge)
        params = struct.pack(
            "<HHHH",
            executable.er_min, executable.er_max,
            output.region.start, output.region.end,
        )
        memory.load_bytes(self.region.start + self.PARAMS_OFFSET, params)

    def read_challenge(self, memory):
        """Return the stored challenge bytes."""
        return memory.dump(self.region.start + self.CHALLENGE_OFFSET, self.CHALLENGE_LENGTH)

    def read_params(self, memory):
        """Return ``(er_min, er_max, or_start, or_end)`` from device memory."""
        raw = memory.dump(self.region.start + self.PARAMS_OFFSET, 8)
        return struct.unpack("<HHHH", raw)


@dataclass(frozen=True)
class PoxConfig:
    """The full PoX geometry for one deployment.

    Frozen: the monitors cache its bounds when they are built.
    """

    executable: ExecutableRegion
    output: OutputRegion
    metadata: MetadataRegion

    def validate_against(self, layout: MemoryLayout):
        """Sanity-check the geometry against a memory layout.

        ER must lie in program memory; OR and metadata must lie in data
        memory; none of the three may overlap.

        :raises ValueError: if any rule is broken.
        """
        if not layout.program.contains_region(self.executable.region):
            raise ValueError("ER %s must lie in program memory" % self.executable.region)
        if not layout.data.contains_region(self.output.region):
            raise ValueError("OR %s must lie in data memory" % self.output.region)
        if not layout.data.contains_region(self.metadata.region):
            raise ValueError("metadata %s must lie in data memory" % self.metadata.region)
        pairs = [
            (self.executable.region, self.output.region),
            (self.executable.region, self.metadata.region),
            (self.output.region, self.metadata.region),
        ]
        for region_a, region_b in pairs:
            if region_a.overlaps(region_b):
                raise ValueError("%s overlaps %s" % (region_a, region_b))

    def measured_regions(self):
        """The regions folded into the PoX measurement (META, ER, OR)."""
        return [self.metadata.region, self.executable.region, self.output.region]
