"""Unit tests for the memory subsystem (layout, memory, IVT)."""

import pytest

from repro.memory.ivt import IVT_BASE, IVT_END, InterruptVectorTable, RESET_VECTOR_INDEX
from repro.memory.layout import MemoryLayout, MemoryRegion
from repro.memory.memory import Memory, MemoryError


class TestMemoryRegion:
    def test_size_is_inclusive(self):
        assert MemoryRegion(0x10, 0x1F).size == 16

    def test_contains(self):
        region = MemoryRegion(0x100, 0x1FF)
        assert region.contains(0x100)
        assert region.contains(0x1FF)
        assert not region.contains(0x200)
        assert not region.contains(0x0FF)

    def test_contains_span(self):
        region = MemoryRegion(0x100, 0x10F)
        assert region.contains_span(0x100, 16)
        assert not region.contains_span(0x100, 17)
        assert not region.contains_span(0x100, 0)

    def test_overlaps(self):
        a = MemoryRegion(0x100, 0x1FF)
        assert a.overlaps(MemoryRegion(0x1FF, 0x2FF))
        assert not a.overlaps(MemoryRegion(0x200, 0x2FF))

    def test_contains_region(self):
        outer = MemoryRegion(0x100, 0x1FF)
        assert outer.contains_region(MemoryRegion(0x120, 0x130))
        assert not outer.contains_region(MemoryRegion(0x120, 0x230))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion(0x200, 0x100)
        with pytest.raises(ValueError):
            MemoryRegion(0, 0x10000)

    def test_str_contains_bounds(self):
        text = str(MemoryRegion(0xE000, 0xE0FF, "ER"))
        assert "E000" in text and "E0FF" in text


class TestMemoryLayout:
    def test_default_regions_present(self):
        layout = MemoryLayout.default()
        for name in ("peripherals", "data", "program", "ivt"):
            assert layout.has_region(name)

    def test_ivt_is_last_32_bytes(self):
        layout = MemoryLayout.default()
        assert layout.ivt.start == 0xFFE0
        assert layout.ivt.end == 0xFFFF
        assert layout.ivt.size == 32

    def test_region_of(self):
        layout = MemoryLayout.default()
        assert layout.region_of(0x0300) == "data"
        assert layout.region_of(0xFFFE) == "ivt"
        assert layout.region_of(0xC000) == "program"

    def test_region_of_unmapped_address(self):
        layout = MemoryLayout.default()
        assert layout.region_of(0x5000) is None

    def test_overlapping_layout_rejected(self):
        with pytest.raises(ValueError):
            MemoryLayout({"a": (0x0000, 0x00FF), "b": (0x0080, 0x01FF)})

    def test_iteration(self):
        names = {region.name for region in MemoryLayout.default()}
        assert "program" in names


class TestMemory:
    def test_byte_read_write(self, memory):
        memory.write_byte(0x0200, 0xAB)
        assert memory.read_byte(0x0200) == 0xAB

    def test_word_little_endian(self, memory):
        memory.write_word(0x0200, 0x1234)
        assert memory.read_byte(0x0200) == 0x34
        assert memory.read_byte(0x0201) == 0x12

    def test_word_access_aligns_address(self, memory):
        memory.write_word(0x0201, 0xBEEF)
        assert memory.peek_word(0x0200) == 0xBEEF

    def test_values_are_masked(self, memory):
        memory.write_byte(0x0200, 0x1FF)
        assert memory.peek_byte(0x0200) == 0xFF
        memory.write_word(0x0202, 0x12345)
        assert memory.peek_word(0x0202) == 0x2345

    def test_load_bytes_and_dump(self, memory):
        memory.load_bytes(0x0400, b"\x01\x02\x03")
        assert memory.dump(0x0400, 3) == b"\x01\x02\x03"

    def test_dump_region(self, memory):
        region = MemoryRegion(0x0400, 0x0403)
        memory.load_bytes(0x0400, b"\xAA\xBB\xCC\xDD")
        assert memory.dump_region(region) == b"\xAA\xBB\xCC\xDD"

    def test_fill(self, memory):
        memory.fill(0x0500, 4, 0x5A)
        assert memory.dump(0x0500, 4) == b"\x5A" * 4

    def test_invalid_size_rejected(self):
        with pytest.raises(MemoryError):
            Memory(size=0)
        with pytest.raises(MemoryError):
            Memory(size=0x20000)

    def test_addresses_wrap_to_16_bits(self, memory):
        memory.write_byte(0x1_0200, 0x77)
        assert memory.peek_byte(0x0200) == 0x77


class TestWriteListeners:
    """Every mutation, run-time or load-time, reaches the write listeners
    (the decode cache, the peripherals' register watches); no read does."""

    @staticmethod
    def listen(memory):
        seen = []
        memory.add_write_listener(
            lambda address, length: seen.append((address, length)))
        return seen

    # Aligned in-range stores are covered by the decode cache's tests;
    # these are the addresses a store masks or aligns before it lands.
    @pytest.mark.parametrize("mutate, span", [
        (lambda memory: memory.write_byte(0x1_0218, 0x01), (0x0218, 1)),
        (lambda memory: memory.write_word(0x0231, 0xBEEF), (0x0230, 2)),
        (lambda memory: memory.write_word(0x1_0221, 0xBEEF), (0x0220, 2)),
        (lambda memory: memory.load_bytes(0x0241, b"\x01\x02"), (0x0241, 2)),
        (lambda memory: memory.load_bytes(0x1_0248, b"\x01"), (0x0248, 1)),
        (lambda memory: memory.load_word(0x0251, 0x1234), (0x0250, 2)),
        (lambda memory: memory.fill(0x1_0260, 8, 0xFF), (0x0260, 8)),
    ], ids=["write_byte-wrapped", "write_word-odd", "write_word-wrapped",
            "load_bytes-odd", "load_bytes-wrapped", "load_word-odd",
            "fill-wrapped"])
    def test_each_mutation_reports_the_span_it_stored(self, memory, mutate,
                                                      span):
        seen = self.listen(memory)
        mutate(memory)
        assert seen == [span]

    @pytest.mark.parametrize("read", [
        lambda memory: memory.read_byte(0x0200),
        lambda memory: memory.read_word(0x0200),
        lambda memory: memory.peek_byte(0x0200),
        lambda memory: memory.peek_word(0x0200),
        lambda memory: memory.dump(0x0200, 8),
        lambda memory: bytes(memory.peek_view(0x0200, 8)),
    ], ids=["read_byte", "read_word", "peek_byte", "peek_word", "dump",
            "peek_view"])
    def test_reads_report_nothing(self, memory, read):
        seen = self.listen(memory)
        read(memory)
        assert seen == []

    def test_listeners_run_in_order_after_the_store(self, memory):
        calls = []
        for name in ("first", "second"):
            memory.add_write_listener(
                lambda address, length, name=name: calls.append(
                    (name, memory.peek_word(address))))
        memory.write_word(0x0300, 0xCAFE)
        assert calls == [("first", 0xCAFE), ("second", 0xCAFE)]

    def test_removing_one_listener_keeps_the_others(self, memory):
        kept = self.listen(memory)
        dropped = []

        def drop(address, length):
            dropped.append((address, length))

        memory.add_write_listener(drop)
        memory.remove_write_listener(drop)
        memory.write_byte(0x0300, 1)
        assert kept == [(0x0300, 1)]
        assert dropped == []


class TestPeekView:
    def test_view_matches_dump(self, memory):
        memory.load_bytes(0x0400, b"\x01\x02\x03\x04")
        view = memory.peek_view(0x0400, 4)
        assert isinstance(view, memoryview)
        assert bytes(view) == memory.dump(0x0400, 4) == b"\x01\x02\x03\x04"

    def test_view_region(self, memory):
        region = MemoryRegion(0x0400, 0x0403)
        memory.load_bytes(0x0400, b"\xAA\xBB\xCC\xDD")
        assert bytes(memory.view_region(region)) == memory.dump_region(region)

    def test_view_is_zero_copy_and_aliases_writes(self, memory):
        view = memory.peek_view(0x0400, 2)
        snapshot = memory.dump(0x0400, 2)
        memory.write_byte(0x0400, 0x99)
        assert view[0] == 0x99          # the view tracks the store...
        assert snapshot[0] == 0x00      # ...the dump stays a copy

    def test_view_is_read_only(self, memory):
        view = memory.peek_view(0x0400, 2)
        assert view.readonly
        with pytest.raises(TypeError):
            view[0] = 1

    def test_out_of_range_view_rejected(self, memory):
        with pytest.raises(MemoryError):
            memory.peek_view(0xFFFF, 2)

    def test_zero_length_view(self, memory):
        assert bytes(memory.peek_view(0x0400, 0)) == b""


class TestInterruptVectorTable:
    def test_geometry(self, memory):
        ivt = InterruptVectorTable(memory)
        assert ivt.base == IVT_BASE
        assert ivt.region.start == 0xFFE0
        assert ivt.region.end == IVT_END
        assert ivt.entries == 16

    def test_entry_addresses(self, memory):
        ivt = InterruptVectorTable(memory)
        assert ivt.entry_address(0) == 0xFFE0
        assert ivt.entry_address(RESET_VECTOR_INDEX) == 0xFFFE
        with pytest.raises(IndexError):
            ivt.entry_address(16)

    def test_index_of(self, memory):
        ivt = InterruptVectorTable(memory)
        assert ivt.index_of(0xFFE0) == 0
        assert ivt.index_of(0xFFFE) == 15
        assert ivt.index_of(0xFFE5) == 2
        with pytest.raises(ValueError):
            ivt.index_of(0xE000)

    def test_set_get_vector(self, memory):
        ivt = InterruptVectorTable(memory)
        ivt.set_vector(3, 0xE122)
        assert ivt.get_vector(3) == 0xE122

    def test_reset_vector(self, memory):
        ivt = InterruptVectorTable(memory)
        ivt.set_reset_vector(0xA400)
        assert ivt.get_reset_vector() == 0xA400

    def test_set_vector_reaches_the_write_listeners(self, memory):
        # A load-time store, but a store: decoded-instruction caches
        # and peripheral watches covering the IVT must hear of it.
        seen = []
        memory.add_write_listener(
            lambda address, length: seen.append((address, length)))
        InterruptVectorTable(memory).set_vector(2, 0xE000)
        assert seen == [(0xFFE4, 2)]

    def test_set_vector_keeps_the_low_16_bits(self, memory):
        ivt = InterruptVectorTable(memory)
        ivt.set_vector(4, 0x1_E008)
        assert ivt.get_vector(4) == 0xE008

    def test_set_vector_touches_only_its_entry(self, memory):
        ivt = InterruptVectorTable(memory)
        ivt.set_vector(7, 0xFFFF)
        assert ivt.as_dict() == {7: 0xFFFF}
        assert memory.dump(ivt.base, 2 * ivt.entries) == \
            bytes(14) + b"\xFF\xFF" + bytes(16)

    @pytest.mark.parametrize("index", [-1, 16])
    def test_set_vector_out_of_range_is_rejected_unstored(self, memory,
                                                         index):
        ivt = InterruptVectorTable(memory)
        with pytest.raises(IndexError):
            ivt.set_vector(index, 0xE000)
        assert ivt.snapshot() == [0] * 16

    def test_snapshot_and_as_dict(self, memory):
        ivt = InterruptVectorTable(memory)
        ivt.set_vector(2, 0xE010)
        ivt.set_vector(9, 0xE020)
        snapshot = ivt.snapshot()
        assert len(snapshot) == 16
        assert snapshot[2] == 0xE010
        assert ivt.as_dict() == {2: 0xE010, 9: 0xE020}

    def test_vectors_pointing_into(self, memory):
        ivt = InterruptVectorTable(memory)
        er = MemoryRegion(0xE000, 0xE0FF, "ER")
        ivt.set_vector(2, 0xE010)
        ivt.set_vector(5, 0xA400)
        assert ivt.vectors_pointing_into(er) == [2]
