"""Unit tests for the CPU core: arithmetic, control flow and interrupts."""

import pytest

from repro.cpu.core import CPU, CPUError
from repro.cpu.decode_cache import DecodeCache
from repro.cpu.signals import SignalBundle
from repro.isa.assembler import Assembler
from repro.isa.registers import SP, SR, StatusFlag
from repro.memory.ivt import InterruptVectorTable
from repro.memory.memory import Memory


def make_cpu(source, base=0xE000, stack_top=0x1200):
    """Assemble *source* into memory at *base* and return a ready CPU."""
    memory = Memory()
    image = Assembler().assemble(
        ".section .text\n" + source, section_addresses={".text": base}
    )
    image.write_to(memory)
    ivt = InterruptVectorTable(memory)
    ivt.set_reset_vector(base)
    cpu = CPU(memory, ivt)
    cpu.reset(stack_top=stack_top)
    return cpu, memory


def run_steps(cpu, count):
    return [cpu.step() for _ in range(count)]


class TestArithmetic:
    def test_mov_and_add(self):
        cpu, _ = make_cpu("MOV #5, R6\nADD #3, R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 8

    def test_sub_sets_zero_flag(self):
        cpu, _ = make_cpu("MOV #7, R6\nSUB #7, R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 0
        assert cpu.flag(StatusFlag.Z)
        assert cpu.flag(StatusFlag.C)  # no borrow

    def test_sub_borrow_clears_carry(self):
        cpu, _ = make_cpu("MOV #3, R6\nSUB #5, R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 0xFFFE
        assert not cpu.flag(StatusFlag.C)
        assert cpu.flag(StatusFlag.N)

    def test_add_carry_and_overflow(self):
        cpu, _ = make_cpu("MOV #0xFFFF, R6\nADD #1, R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 0
        assert cpu.flag(StatusFlag.C)
        assert not cpu.flag(StatusFlag.V)

    def test_signed_overflow(self):
        cpu, _ = make_cpu("MOV #0x7FFF, R6\nADD #1, R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 0x8000
        assert cpu.flag(StatusFlag.V)
        assert cpu.flag(StatusFlag.N)

    def test_addc_uses_carry(self):
        cpu, _ = make_cpu(
            "MOV #0xFFFF, R6\nADD #1, R6\nMOV #10, R7\nADDC #0, R7\n"
        )
        run_steps(cpu, 4)
        assert cpu.registers[7] == 11

    def test_and_bit_bis_bic_xor(self):
        cpu, _ = make_cpu(
            "MOV #0x00FF, R6\n"
            "AND #0x0F0F, R6\n"      # 0x000F
            "BIS #0x0030, R6\n"      # 0x003F
            "BIC #0x0007, R6\n"      # 0x0038
            "XOR #0x00FF, R6\n"      # 0x00C7
        )
        run_steps(cpu, 5)
        assert cpu.registers[6] == 0x00C7

    def test_bit_sets_flags_without_writing(self):
        cpu, _ = make_cpu("MOV #0x0F, R6\nBIT #0x10, R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 0x0F
        assert cpu.flag(StatusFlag.Z)

    def test_cmp_does_not_write(self):
        cpu, _ = make_cpu("MOV #9, R6\nCMP #9, R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 9
        assert cpu.flag(StatusFlag.Z)

    def test_dadd_decimal_addition(self):
        cpu, _ = make_cpu("MOV #0x0019, R6\nCLR R7\nDADD #0x0003, R6\n")
        run_steps(cpu, 3)
        assert cpu.registers[6] == 0x0022  # 19 + 3 = 22 in BCD

    def test_byte_mode_clears_high_byte_of_register(self):
        cpu, _ = make_cpu("MOV #0x1234, R6\nMOV.B #0x56, R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 0x0056

    def test_swpb(self):
        cpu, _ = make_cpu("MOV #0x1234, R6\nSWPB R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 0x3412

    def test_sxt(self):
        cpu, _ = make_cpu("MOV #0x0080, R6\nSXT R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 0xFF80

    def test_rra_and_rrc(self):
        cpu, _ = make_cpu("MOV #0x8002, R6\nRRA R6\nMOV #0x0001, R7\nRRC R7\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 0xC001  # arithmetic shift keeps the sign
        run_steps(cpu, 2)
        # carry was 0 after RRA of ...0 -> wait: RRA shifted out bit0=0, so C=0
        assert cpu.registers[7] in (0x0000, 0x8000)


class TestMemoryOperands:
    def test_absolute_store_and_load(self):
        cpu, memory = make_cpu("MOV #0xBEEF, &0x0300\nMOV &0x0300, R9\n")
        run_steps(cpu, 2)
        assert memory.peek_word(0x0300) == 0xBEEF
        assert cpu.registers[9] == 0xBEEF

    def test_indexed_addressing(self):
        cpu, memory = make_cpu(
            "MOV #0x0300, R4\nMOV #0x1111, 2(R4)\nMOV 2(R4), R5\n"
        )
        run_steps(cpu, 3)
        assert memory.peek_word(0x0302) == 0x1111
        assert cpu.registers[5] == 0x1111

    def test_indirect_autoincrement(self):
        cpu, memory = make_cpu(
            "MOV #0x1111, &0x0300\n"
            "MOV #0x2222, &0x0302\n"
            "MOV #0x0300, R4\n"
            "MOV @R4+, R5\n"
            "MOV @R4+, R6\n"
        )
        run_steps(cpu, 5)
        assert cpu.registers[5] == 0x1111
        assert cpu.registers[6] == 0x2222
        assert cpu.registers[4] == 0x0304

    def test_byte_autoincrement_advances_by_one(self):
        cpu, _ = make_cpu(
            "MOV #0x0300, R4\nMOV.B @R4+, R5\nMOV.B @R4+, R6\n"
        )
        run_steps(cpu, 3)
        assert cpu.registers[4] == 0x0302

    def test_write_signals_reported(self):
        cpu, _ = make_cpu("MOV #0xAA, &0x0310\n")
        bundle = cpu.step()
        assert isinstance(bundle, SignalBundle)
        assert bundle.wen
        assert 0x0310 in bundle.write_addresses

    def test_read_signals_reported(self):
        cpu, _ = make_cpu("MOV &0x0310, R5\n")
        bundle = cpu.step()
        assert 0x0310 in bundle.read_addresses


class TestControlFlow:
    def test_conditional_loop(self):
        cpu, _ = make_cpu(
            "MOV #0, R6\nloop:\nINC R6\nCMP #5, R6\nJNE loop\nNOP\n"
        )
        for _ in range(40):
            cpu.step()
            if cpu.registers[6] == 5 and cpu.flag(StatusFlag.Z):
                break
        assert cpu.registers[6] == 5

    def test_jmp_is_unconditional(self):
        cpu, _ = make_cpu("JMP target\nMOV #1, R6\ntarget:\nMOV #2, R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 2

    def test_call_and_ret(self):
        cpu, _ = make_cpu(
            "CALL #subroutine\nMOV #1, R7\nJMP end\n"
            "subroutine:\nMOV #9, R6\nRET\n"
            "end:\nNOP\n"
        )
        run_steps(cpu, 5)
        assert cpu.registers[6] == 9
        assert cpu.registers[7] == 1

    def test_call_pushes_return_address(self):
        cpu, memory = make_cpu("CALL #subroutine\nNOP\nsubroutine:\nRET\n")
        initial_sp = cpu.sp
        cpu.step()
        assert cpu.sp == initial_sp - 2
        assert memory.peek_word(cpu.sp) == 0xE004

    def test_push_pop(self):
        cpu, _ = make_cpu("MOV #0x1234, R6\nPUSH R6\nCLR R6\nPOP R7\n")
        run_steps(cpu, 4)
        assert cpu.registers[7] == 0x1234

    def test_br_sets_pc(self):
        cpu, _ = make_cpu("BR #target\nMOV #1, R6\ntarget:\nMOV #2, R6\n")
        run_steps(cpu, 2)
        assert cpu.registers[6] == 2

    def test_jge_jl_signed_comparison(self):
        cpu, _ = make_cpu(
            "MOV #0xFFFE, R6\nCMP #1, R6\nJL lower\nMOV #1, R7\nJMP end\n"
            "lower:\nMOV #2, R7\nend:\nNOP\n"
        )
        run_steps(cpu, 5)
        assert cpu.registers[7] == 2  # -2 < 1 signed


class TestStatusRegisterAndSleep:
    def test_dint_eint(self):
        cpu, _ = make_cpu("EINT\nDINT\n")
        cpu.step()
        assert cpu.interrupts_enabled
        cpu.step()
        assert not cpu.interrupts_enabled

    def test_cpuoff_makes_cpu_idle(self):
        cpu, _ = make_cpu("BIS #0x10, SR\nMOV #1, R6\n")
        cpu.step()
        assert cpu.sleeping
        bundle = cpu.step()
        assert bundle.cpu_off and not bundle.irq
        assert bundle.instruction == "(sleep)"
        assert bundle.next_pc == bundle.pc
        assert cpu.registers[6] == 0  # the MOV did not execute

    def test_illegal_instruction_raises(self):
        memory = Memory()
        ivt = InterruptVectorTable(memory)
        ivt.set_reset_vector(0xE000)
        cpu = CPU(memory, ivt)
        cpu.reset(stack_top=0x1200)
        with pytest.raises(CPUError):
            cpu.step()


#: A quiet test ``(er_start, er_end, er_min)`` for ER = [0xE100, 0xE1FF].
QUIET = (0xE100, 0xE1FF, 0xE100)


def make_cached_cpu(source, base, pc=None):
    """:func:`make_cpu` with a decode cache, starting at *pc* (or *base*)."""
    cpu, memory = make_cpu(source, base)
    cpu.decode_cache = DecodeCache()
    memory.add_write_listener(cpu.decode_cache.invalidate_range)
    if pc is not None:
        cpu.pc = pc
    return cpu


def step_by_step(cpu, limit):
    """What ``run_quiet(limit, QUIET)`` does, one ``CPU.step`` at a time:
    the settled steps' bundles, and the bundle of the step that ended
    the stretch (``None`` at the limit)."""
    er_start, er_end, er_min = QUIET
    settled = []
    while len(settled) < limit:
        bundle = cpu.step()
        if (bundle.writes or bundle.cpu_off or bundle.pc == er_min
                or (er_start <= bundle.pc <= er_end)
                != (er_start <= bundle.next_pc <= er_end)):
            return settled, bundle
        settled.append(bundle)
    return settled, None


def counters(cpu):
    cache = cpu.decode_cache
    return (list(cpu.registers), cpu.step_count, cpu.cycle_count, cache.hits, cache.misses)


class TestRunQuiet:
    """``CPU.run_quiet`` against the same steps run through ``CPU.step``."""

    @pytest.mark.parametrize("source, base, pc, limit", [
        # Outside ER, a loop: two decode misses, then hits, to the limit.
        ("loop: INC R5\nJMP loop\n", 0xE000, None, 9),
        # A store ends the stretch.
        ("MOV #1, R5\nADD R5, R6\nMOV R6, &0x0200\nNOP\n", 0xE000, None, 50),
        # Walking into ER crosses its boundary.
        ("NOP\nNOP\nNOP\nNOP\nNOP\n", 0xE0F8, None, 50),
        # Inside ER, a jump back to ER_min.
        ("start: NOP\nNOP\nJMP start\n", 0xE100, 0xE102, 50),
        # Sleep: the step after BIS #CPUOFF idles.
        ("MOV #1, R5\nBIS #0x10, SR\nMOV #1, R6\n", 0xE000, None, 50),
        # A limit of one.
        ("MOV #1, R5\nMOV #2, R6\n", 0xE000, None, 1),
    ], ids=["limit", "store", "crossing", "er-min", "sleep", "one-step"])
    def test_a_stretch_matches_its_steps(self, source, base, pc, limit):
        fast = make_cached_cpu(source, base, pc)
        slow = make_cached_cpu(source, base, pc)
        ended = fast.run_quiet(limit, QUIET)
        settled, expected = step_by_step(slow, limit)
        assert ended == expected
        assert fast.stretch == (len(settled),
                                sum(bundle.cycles_consumed for bundle in settled),
                                settled[-1].cycles_consumed if settled else 0)
        assert counters(fast) == counters(slow)

    def test_a_crash_mid_stretch_still_counts_the_settled_steps(self):
        # Unprogrammed memory follows the two moves: the third fetch fails.
        fast = make_cached_cpu("MOV #1, R5\nMOV #2, R6\n", 0xE000)
        slow = make_cached_cpu("MOV #1, R5\nMOV #2, R6\n", 0xE000)
        with pytest.raises(CPUError):
            fast.run_quiet(50, QUIET)
        with pytest.raises(CPUError):
            step_by_step(slow, 50)
        assert fast.stretch[0] == 2
        assert counters(fast) == counters(slow)


class TestInterruptHandling:
    def build(self):
        source = (
            "EINT\n"
            "main_loop:\n"
            "INC R6\n"
            "JMP main_loop\n"
            "isr:\n"
            "INC R10\n"
            "RETI\n"
        )
        cpu, memory = make_cpu(source)
        isr_address = 0xE000 + 2 + 2 + 2  # EINT + INC + JMP
        cpu.ivt.set_vector(2, isr_address)
        return cpu, memory, isr_address

    def test_interrupt_entry_and_return(self):
        cpu, memory, isr_address = self.build()
        run_steps(cpu, 3)
        bundle = cpu.step(pending_interrupt=2)
        assert bundle.irq
        assert bundle.irq_source == 2
        assert bundle.next_pc == isr_address
        assert cpu.pc == isr_address
        assert not cpu.interrupts_enabled  # GIE cleared on entry
        run_steps(cpu, 2)  # INC R10 ; RETI
        assert cpu.registers[10] == 1
        assert cpu.interrupts_enabled  # restored from stacked SR

    def test_interrupt_pushes_pc_and_sr(self):
        cpu, memory, _ = self.build()
        run_steps(cpu, 1)
        sp_before = cpu.sp
        interrupted_pc = cpu.pc
        sr_before = cpu.sr
        cpu.step(pending_interrupt=2)
        assert cpu.sp == sp_before - 4
        assert memory.peek_word(sp_before - 2) == interrupted_pc
        assert memory.peek_word(sp_before - 4) == sr_before

    def test_interrupt_ignored_when_gie_clear(self):
        cpu, _, _ = self.build()
        # Do not execute EINT yet: GIE is clear at reset.
        bundle = cpu.step(pending_interrupt=2)
        assert not bundle.irq
        assert bundle.irq_source is None

    def test_interrupt_wakes_sleeping_cpu(self):
        source = (
            "BIS #0x18, SR\n"    # GIE + CPUOFF
            "MOV #7, R6\n"
            "isr:\n"
            "BIC #0x10, 0(SP)\n"  # clear CPUOFF in the stacked SR
            "RETI\n"
        )
        cpu, _ = make_cpu(source)
        # BIS #0x18 (4 bytes) + MOV #7 (4 bytes) put the ISR at +8.
        cpu.ivt.set_vector(9, 0xE000 + 8)
        cpu.step()           # go to sleep
        assert cpu.sleeping
        cpu.step()           # idle
        cpu.step(pending_interrupt=9)
        assert not cpu.sleeping
        run_steps(cpu, 2)    # BIC ; RETI
        assert not cpu.sleeping
        cpu.step()           # MOV #7, R6 now runs
        assert cpu.registers[6] == 7

    def test_reti_restores_sleep_if_not_cleared(self):
        source = (
            "BIS #0x18, SR\n"
            "MOV #7, R6\n"
            "isr:\n"
            "RETI\n"
        )
        cpu, _ = make_cpu(source)
        cpu.ivt.set_vector(9, 0xE000 + 8)
        cpu.step()
        cpu.step(pending_interrupt=9)
        cpu.step()  # RETI restores the stacked SR, CPUOFF still set
        assert cpu.sleeping


class TestCycleAccounting:
    def test_cycles_accumulate(self):
        cpu, _ = make_cpu("MOV #5, R6\nADD #3, R6\nNOP\n")
        run_steps(cpu, 3)
        assert cpu.cycle_count >= 3
        assert cpu.step_count == 3

    def test_interrupt_entry_costs_six_cycles(self):
        cpu, _, _ = TestInterruptHandling().build()
        run_steps(cpu, 1)
        before = cpu.cycle_count
        cpu.step(pending_interrupt=2)
        assert cpu.cycle_count - before == 6
