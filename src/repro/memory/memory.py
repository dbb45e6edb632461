"""Byte-addressable 64 KiB memory.

The memory itself is policy-free: it performs every read and write it is
asked to.  Security policies (VRASED key access control, APEX/ASAP ER-,
OR- and IVT-protection) are enforced by the hardware-monitor modules,
which observe the per-cycle signal bundle produced by the CPU and DMA
engine rather than by intercepting memory traffic.  So a store made by
calling this class directly, outside an instruction, is invisible to
them; a software write the monitors must see goes through
:meth:`~repro.device.mcu.Device.write_word_as_cpu`.
"""

from __future__ import annotations

from typing import Callable, List

from repro.memory.layout import ADDRESS_MASK, ADDRESS_SPACE_SIZE


class MemoryError(Exception):
    """Raised on malformed memory operations (bad address/width)."""


class Memory:
    """A flat 64 KiB little-endian memory.

    ``load_bytes``/``load_word``/``fill`` model load-time programming
    (flashing); ``read_*``/``write_*`` model run-time bus traffic, the
    loads and stores of compiled instructions.

    A *write listener* is called as ``listener(address, length)`` for
    **every** mutation, including load-time programming and DMA
    stores.  The decoded-instruction cache uses it to invalidate
    entries covering rewritten code.
    """

    def __init__(self, size=ADDRESS_SPACE_SIZE, fill=0x00):
        if size <= 0 or size > ADDRESS_SPACE_SIZE:
            raise MemoryError("invalid memory size %r" % (size,))
        self._data = bytearray([fill & 0xFF]) * size
        self._size = size
        self._write_listeners: List[Callable[[int, int], None]] = []

    # ------------------------------------------------------- write listeners

    def add_write_listener(self, callback):
        """Register ``callback(address, length)`` for every mutation.

        Write listeners fire for load-time programming
        (``load_bytes``/``load_word``/``fill``) too, so caches of
        decoded memory contents can never go stale.
        """
        self._write_listeners.append(callback)

    def remove_write_listener(self, callback):
        """Remove a previously registered write listener."""
        self._write_listeners.remove(callback)

    def _notify_write(self, address, length):
        for listener in self._write_listeners:
            listener(address, length)

    # -------------------------------------------------------------- checks

    @property
    def size(self):
        """The size of the memory in bytes."""
        return self._size

    def _check(self, address, width):
        address &= ADDRESS_MASK
        if address + width > self._size:
            raise MemoryError(
                "access of %d bytes at 0x%04X exceeds memory size 0x%04X"
                % (width, address, self._size)
            )
        return address

    # ------------------------------------------------------------- runtime

    # Every compiled instruction's bus access comes through these four:
    # like ``peek_*``, they inline the in-range test and call _check
    # only to raise on an access past the end of a smaller memory.

    def read_byte(self, address):
        """Read one byte."""
        address &= ADDRESS_MASK
        if address >= self._size:
            self._check(address, 1)
        return self._data[address]

    def write_byte(self, address, value):
        """Write one byte."""
        address &= ADDRESS_MASK
        if address >= self._size:
            self._check(address, 1)
        self._data[address] = value & 0xFF
        if self._write_listeners:
            self._notify_write(address, 1)

    def read_word(self, address):
        """Read a 16-bit little-endian word (address is forced even)."""
        address &= 0xFFFE
        if address + 2 > self._size:
            self._check(address, 2)
        data = self._data
        return data[address] | (data[address + 1] << 8)

    def write_word(self, address, value):
        """Write a 16-bit little-endian word (address is forced even)."""
        address &= 0xFFFE
        if address + 2 > self._size:
            self._check(address, 2)
        value &= 0xFFFF
        data = self._data
        data[address] = value & 0xFF
        data[address + 1] = (value >> 8) & 0xFF
        if self._write_listeners:
            self._notify_write(address, 2)

    # ------------------------------------------------------------ programming

    def load_bytes(self, address, data):
        """Store *data* starting at *address* at load time."""
        address = self._check(address, max(len(data), 1))
        self._data[address : address + len(data)] = bytes(data)
        if self._write_listeners:
            self._notify_write(address, len(data))

    def load_word(self, address, value):
        """Store a single word at load time."""
        address = self._check(address & 0xFFFE, 2)
        self._data[address] = value & 0xFF
        self._data[address + 1] = (value >> 8) & 0xFF
        if self._write_listeners:
            self._notify_write(address, 2)

    def peek_byte(self, address):
        """Read one byte (instruction fetch, peripherals, attestation)."""
        # Hot path (CPU fetch, peripheral register polls): inline the
        # bounds check instead of calling _check.
        address &= ADDRESS_MASK
        if address < self._size:
            return self._data[address]
        return self._data[self._check(address, 1)]

    def peek_word(self, address):
        """Read one word (instruction fetch, peripherals, attestation)."""
        address &= 0xFFFE
        if address + 2 <= self._size:
            data = self._data
            return data[address] | (data[address + 1] << 8)
        address = self._check(address, 2)
        return self._data[address] | (self._data[address + 1] << 8)

    def dump(self, start, length):
        """Return ``length`` bytes starting at ``start`` (no notification)."""
        start = self._check(start, max(length, 1))
        return bytes(self._data[start : start + length])

    def dump_region(self, region):
        """Return the bytes covered by a :class:`MemoryRegion`."""
        return self.dump(region.start, region.size)

    def peek_view(self, start, length):
        """Zero-copy read-only view of ``length`` bytes at ``start``.

        The view **aliases** the backing store: a write performed after
        the view was taken is visible through it (that is what makes it
        zero-copy).  Take ``bytes(view)`` -- or use :meth:`dump` -- for
        a stable snapshot.  The view is read-only, so callers cannot
        mutate memory behind the write listeners' backs, and
        it must be released (dropped) before the backing store can be
        resized.  The attestation fast path streams these views into
        the HMAC instead of concatenating region copies.
        """
        start = self._check(start, max(length, 1))
        return memoryview(self._data).toreadonly()[start : start + length]

    def view_region(self, region):
        """Zero-copy read-only view of a :class:`MemoryRegion`.

        Same aliasing semantics as :meth:`peek_view`.
        """
        return self.peek_view(region.start, region.size)

    def fill(self, start, length, value=0x00):
        """Fill ``length`` bytes from ``start`` with *value* (load-time)."""
        start = self._check(start, max(length, 1))
        self._data[start : start + length] = bytes([value & 0xFF]) * length
        if self._write_listeners:
            self._notify_write(start, length)
