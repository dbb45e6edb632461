"""Unit tests for the decoded-instruction cache and its invalidation.

The cache is only sound if **every** mutation path of memory drops the
decoded entries covering the touched bytes: CPU bus writes, DMA word
moves (which use the load-time store), and load-time programming
(reflashing).  The attack gallery deliberately rewrites code, so these
tests exercise exactly those paths.
"""

import pytest

from repro.cpu.decode_cache import DecodeCache, FULL_FLUSH_THRESHOLD
from repro.device.mcu import Device, DeviceConfig
from repro.isa.assembler import Assembler
from repro.memory.memory import Memory


def load_program(device, source, base=0xE000):
    image = Assembler().assemble(
        ".section .text\n" + source, section_addresses={".text": base}
    )
    image.write_to(device.memory)
    device.ivt.set_reset_vector(base)
    device.reset()
    return image


def _no_access():
    """An entry's execute closure that changes nothing and touches no bus."""
    return (), ()


class TestDecodeCacheUnit:
    def test_store_and_lookup(self):
        cache = DecodeCache()
        cache.store(0xE000, _no_access, 2, "NOP", 1)
        assert cache.lookup(0xE000) == (_no_access, 2, "NOP", 1)
        assert cache.lookup(0xE002) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_invalidate_covers_preceding_instructions(self):
        # A 3-word instruction starting 4 bytes before the write still
        # spans the written word and must be dropped.
        cache = DecodeCache()
        cache.store(0xE000, "i", 6, "MOV", 1)
        cache.invalidate_range(0xE004, 2)
        assert cache.lookup(0xE000) is None

    def test_invalidate_leaves_unrelated_entries(self):
        cache = DecodeCache()
        cache.store(0xE000, _no_access, 2, "A", 1)
        cache.store(0xE010, _no_access, 2, "B", 1)
        cache.invalidate_range(0xE010, 2)
        assert cache.lookup(0xE000) == (_no_access, 2, "A", 1)
        assert cache.lookup(0xE010) is None

    def test_write_outside_cached_span_is_cheap_reject(self):
        cache = DecodeCache()
        cache.store(0xE000, "a", 2, "A", 1)
        cache.invalidate_range(0x0100, 2)  # peripheral register page
        assert cache.invalidations == 0
        assert len(cache) == 1

    def test_large_invalidation_flushes_everything(self):
        cache = DecodeCache()
        for offset in range(0, 32, 2):
            cache.store(0xE000 + offset, "i", 2, "I", 1)
        cache.invalidate_range(0xE000, FULL_FLUSH_THRESHOLD + 1)
        assert len(cache) == 0

    def test_invalidation_near_address_zero_does_not_wrap(self):
        cache = DecodeCache()
        cache.store(0x0000, "i", 2, "I", 1)
        cache.invalidate_range(0x0001, 1)
        assert cache.lookup(0x0000) is None

    def test_low_write_invalidates_wrapping_top_of_memory_entry(self):
        # An instruction cached at 0xFFFC spans (mod 64K) into bytes
        # 0x0000/0x0001; a write there must drop it.
        cache = DecodeCache()
        cache.store(0xFFFC, "i", 6, "MOV", 1)
        cache.invalidate_range(0x0000, 2)
        assert cache.lookup(0xFFFC) is None

    def test_stats_shape(self):
        cache = DecodeCache()
        cache.store(0xE000, "i", 2, "I", 1)
        cache.lookup(0xE000)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert 0.0 <= stats["hit_rate"] <= 1.0


class TestDecodeCacheInDevice:
    def test_cache_populates_and_hits(self, device):
        load_program(device, "loop:\nINC R6\nJMP loop\n")
        device.run_steps(20)
        assert device.decode_cache is not None
        assert len(device.decode_cache) == 2
        assert device.decode_cache.hits > 0

    def test_disabled_cache_is_absent(self):
        device = Device(DeviceConfig(decode_cache_enabled=False))
        assert device.decode_cache is None
        assert device.cpu.decode_cache is None

    def test_cpu_write_invalidates_stale_decode(self, device):
        # The program patches a later instruction (MOV #1, R10 is
        # replaced by MOV #0, R10) via a plain CPU store; the cached
        # decode of the original bytes must not survive the write.
        source = (
            "MOV #0x430A, &target\n"   # patch target to "MOV #0, R10"
            "NOP\n"
            "target:\n"
            "MOV #1, R10\n"
            "done:\nJMP done\n"
        )
        image = load_program(device, source)
        target = image.symbol("target")
        # Warm the cache with the original target bytes.
        device.cpu._fetch(target)
        assert device.decode_cache.lookup(target) is not None
        device.run_steps(6)
        # R10 must be 0, not 1: the executed instruction came from the
        # patched bytes, not the stale cached decode.
        assert device.memory.peek_word(target) == 0x430A
        assert device.cpu.registers[10] == 0

    def test_self_modifying_code_sees_fresh_bytes(self, device):
        # First pass executes MOV #1, R10; then the program rewrites that
        # slot and jumps back, and the second pass must execute the new
        # instruction (MOV #2 -> R11 encoded via registers would be
        # complex to patch by hand, so we patch to NOP = MOV #0, CG and
        # check R10 keeps its first-pass value while R11 proves the loop
        # ran twice).
        source = (
            "start:\n"
            "INC R11\n"            # pass counter
            "CMP #2, R11\n"
            "JEQ done\n"
            "target:\n"
            "MOV #1, R10\n"        # two words: 0x403A 0x0001
            "MOV #0x4303, &0xE008\n"  # overwrite target opcode with NOP
            "MOV #0x4303, &0xE00A\n"  # and its extension word slot
            "JMP start\n"
            "done:\nJMP done\n"
        )
        load_program(device, source)
        device.run_steps(40)
        # Second pass executed the patched NOPs, not MOV #1, R10 --
        # but R10 was set on the first pass.
        assert device.cpu.registers[11] == 2
        assert device.cpu.registers[10] == 1
        assert device.memory.peek_word(0xE008) == 0x4303

    def test_dma_write_into_code_invalidates(self, device):
        # DMA copies new code over the instruction stream while the CPU
        # spins; the CPU must execute the DMA-written bytes.  DMA uses
        # the load-time store path, which must also invalidate.
        source = (
            "loop:\n"
            "CMP #1, R15\n"
            "JNE loop\n"
            "target:\n"
            "MOV #1, R10\n"        # will be overwritten by DMA with NOPs
            "NOP\n"
            "done:\nJMP done\n"
        )
        image = load_program(device, source)
        target = image.symbol("target")
        # Stage NOP words (0x4303) at 0x0200 and DMA them over the MOV.
        device.memory.load_word(0x0200, 0x4303)
        device.memory.load_word(0x0202, 0x4303)
        device.run_steps(4)  # warm cache on the loop
        # Decode the MOV once so it is definitely cached.
        device.cpu._fetch(target)
        assert device.decode_cache.lookup(target) is not None
        device.dma.configure(source=0x0200, destination=target, size_words=2)
        device.dma.trigger()
        device.run_steps(4)  # transfer completes (one word per step)
        device.cpu.registers[15] = 1  # release the spin loop
        device.run_steps(6)
        assert device.cpu.registers[10] == 0  # MOV was replaced by NOPs

    def test_reflash_invalidates(self, device):
        load_program(device, "MOV #1, R10\ndone:\nJMP done\n")
        device.run_steps(4)
        assert device.cpu.registers[10] == 1
        # Reflash with different firmware at the same base.
        load_program(device, "MOV #7, R10\ndone:\nJMP done\n")
        device.run_steps(4)
        assert device.cpu.registers[10] == 7

    def test_memory_write_listener_fires_for_all_mutations(self):
        memory = Memory()
        seen = []
        memory.add_write_listener(lambda address, length: seen.append((address, length)))
        memory.write_byte(0x10, 0xAA)
        memory.write_word(0x20, 0xBEEF)
        memory.load_bytes(0x30, b"\x01\x02\x03")
        memory.load_word(0x40, 0x1234)
        memory.fill(0x50, 8, 0xFF)
        assert seen == [(0x10, 1), (0x20, 2), (0x30, 3), (0x40, 2), (0x50, 8)]
        memory.remove_write_listener(memory._write_listeners[0])
        memory.write_byte(0x10, 0xBB)
        assert len(seen) == 5
