"""Property-based decode-cache differential: random programs, identical state.

Random ISA programs (reusing the encoding-space strategies from
``test_property_isa``) run twice from the same reset state through the
one step loop (``Device.run_steps``): once with the decode cache on and
once with it off (``DeviceConfig.decode_cache_enabled``).  Afterwards
the two devices must agree on every register, every counter, the crash
latch, all 64 KiB of memory and every trace entry -- a cache hit must be
indistinguishable from a cold decode.  A second generator biases toward
memory-destination and Format II operands, whose writes can land on the
program itself; a third property fuzzes self-modifying code: a hot loop
rewrites its own body with an arbitrary 16-bit value, and both runs
must still agree on whatever happens next (including crashing
identically).  ``tests/integration/test_decode_cache_differential.py``
checks the same invariant on the paper's firmware images.
"""

from hypothesis import given, settings, strategies as st

from test_property_isa import (
    FORMAT_I_OPCODES,
    FORMAT_II_OPCODES,
    instructions,
)

from repro.device.mcu import Device, DeviceConfig
from repro.isa.encoding import encode_instruction
from repro.isa.instructions import Instruction, Opcode, Operand
from repro.peripherals.registers import PeripheralRegisters


BASE = 0xE000

#: ``MOV #0x5A80, &WDTCTL`` -- stop the watchdog, so the run goes
#: quiescent (no per-step peripheral ticks) as every long firmware loop
#: does.
_STOP_WATCHDOG = Instruction(
    Opcode.MOV, src=Operand.imm(0x5A80),
    dst=Operand.absolute(PeripheralRegisters.WDTCTL),
)

#: ``JMP $`` -- park the program in a tight self-loop when it falls
#: through its random body.
_SELF_LOOP = Instruction(Opcode.JMP, jump_offset=-2)


def _assemble_words(instruction_list):
    words = []
    for instruction in instruction_list:
        words.extend(encode_instruction(instruction))
    return words


def _program_bytes(instruction_list):
    words = _assemble_words(
        [_STOP_WATCHDOG] + instruction_list + [_SELF_LOOP])
    data = bytearray()
    for word in words:
        data.append(word & 0xFF)
        data.append((word >> 8) & 0xFF)
    return bytes(data)


def _fresh_device(program, register_values, decode_cache):
    device = Device(DeviceConfig(decode_cache_enabled=decode_cache))
    device.memory.load_bytes(BASE, program)
    device.ivt.set_reset_vector(BASE)
    device.reset()
    for index, value in enumerate(register_values, start=4):
        device.cpu.registers[index] = value
    return device


def _final_state(device):
    return {
        "registers": list(device.cpu.registers),
        "step_count": device.cpu.step_count,
        "cycle_count": device.cpu.cycle_count,
        "trace_cycles": device.trace.total_cycles,
        "step_number": device.step_number,
        "crashed": device.crashed,
        "crash_reason": device.crash_reason,
        "watchdog_resets": device.watchdog_resets,
        "memory": device.memory.dump(0, 0x10000),
        "trace": list(device.trace),
    }


def _run_both(program, register_values, steps=300):
    """``(cached, uncached)`` final states for the same program."""
    states = []
    for decode_cache in (True, False):
        device = _fresh_device(program, register_values, decode_cache)
        device.run_steps(steps)
        states.append(_final_state(device))
    return tuple(states)


register_files = st.lists(
    st.integers(min_value=0, max_value=0xFFFF), min_size=12, max_size=12)


@st.composite
def memory_heavy_instructions(draw):
    """Instruction strategy biased toward memory traffic:
    memory-destination Format I (absolute/indexed writeback, DADD
    included) and Format II (RRC/RRA/SWPB/SXT/PUSH over register,
    absolute, indexed, indirect and autoincrement operands).  A slice
    of the unbiased strategy keeps jumps and register shapes in the
    mix."""
    registers = st.integers(min_value=4, max_value=15)
    addresses = st.integers(min_value=0x0200, max_value=0x03FE)
    offsets = st.integers(min_value=0, max_value=0x00FE)
    memory_destinations = st.one_of(
        addresses.map(Operand.absolute),
        st.tuples(registers, offsets).map(
            lambda pair: Operand.indexed(*pair)),
    )
    rich_sources = st.one_of(
        memory_destinations,
        registers.map(lambda r: Operand.indirect(r)),
        registers.map(lambda r: Operand.indirect(r, autoincrement=True)),
        st.integers(min_value=0, max_value=0xFFFF).map(Operand.imm),
        registers.map(Operand.reg),
    )
    shape = draw(st.sampled_from(
        ("fi-mem", "fi-mem", "fii", "fii", "unbiased")))
    if shape == "fi-mem":
        return Instruction(
            opcode=draw(st.sampled_from(FORMAT_I_OPCODES)),
            src=draw(rich_sources),
            dst=draw(memory_destinations),
            byte_mode=draw(st.booleans()),
        )
    if shape == "fii":
        return Instruction(
            opcode=draw(st.sampled_from(FORMAT_II_OPCODES)),
            src=draw(rich_sources),
            byte_mode=draw(st.booleans()),
        )
    return draw(instructions())


class TestRandomProgramsIdentical:
    @given(
        body=st.lists(instructions(), min_size=1, max_size=16),
        register_values=register_files,
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_matches_uncached(self, body, register_values):
        cached, uncached = _run_both(_program_bytes(body), register_values)
        assert cached == uncached


class TestMemoryHeavyProgramsIdentical:
    @given(
        body=st.lists(memory_heavy_instructions(), min_size=1, max_size=16),
        register_values=register_files,
    )
    @settings(max_examples=60, deadline=None)
    def test_memory_heavy_programs_cached_match_uncached(
            self, body, register_values):
        cached, uncached = _run_both(_program_bytes(body), register_values)
        assert cached == uncached


class TestFoundCounterexamples:
    def test_fault_after_completed_steps(self):
        """``RRC #0`` faults at execution time (no writeback address)
        after three completed steps: both runs must account the
        completed steps and the crashing one identically."""
        body = [
            Instruction(Opcode.MOV, src=Operand.reg(4),
                        dst=Operand.reg(4)),
            Instruction(Opcode.MOV, src=Operand.reg(4),
                        dst=Operand.reg(4)),
            Instruction(Opcode.MOV, src=Operand.reg(4),
                        dst=Operand.reg(4)),
            Instruction(Opcode.RRC, src=Operand.imm(0)),
        ]
        cached, uncached = _run_both(_program_bytes(body), [0] * 12)
        assert cached == uncached
        assert cached["crashed"]


class TestSelfModifyingProgramsIdentical:
    @given(
        rewrite_word=st.integers(min_value=0, max_value=0xFFFF),
        register_values=register_files,
    )
    @settings(max_examples=40, deadline=None)
    def test_rewritten_hot_loop_cached_matches_uncached(self, rewrite_word,
                                                        register_values):
        # loop: INC R6 / CMP #24, R6 / JL loop -- then smash the INC at
        # `loop` with an arbitrary word and fall into the loop again.
        prologue_len = len(_assemble_words([_STOP_WATCHDOG])) * 2
        loop_address = BASE + prologue_len
        body = [
            Instruction(Opcode.ADD, src=Operand.imm(1),
                        dst=Operand.reg(6)),                       # loop:
            Instruction(Opcode.CMP, src=Operand.imm(24),
                        dst=Operand.reg(6)),
            Instruction(Opcode.JL, jump_offset=0),                 # patched
            Instruction(Opcode.MOV, src=Operand.imm(rewrite_word),
                        dst=Operand.absolute(loop_address)),
            Instruction(Opcode.JMP, jump_offset=0),                # patched
        ]
        # Patch the jump offsets now that sizes are known: JL back to
        # `loop`, JMP back to `loop` as well (re-entering the rewritten
        # body, whatever it now decodes to).
        sizes = [instruction.size_words() * 2 for instruction in body]
        # JL at index 2: target = loop start.
        jl_pc = loop_address + sizes[0] + sizes[1]
        body[2] = Instruction(Opcode.JL,
                              jump_offset=loop_address - (jl_pc + 2))
        jmp_pc = jl_pc + sizes[2] + sizes[3]
        body[4] = Instruction(Opcode.JMP,
                              jump_offset=loop_address - (jmp_pc + 2))

        cached, uncached = _run_both(_program_bytes(body), register_values,
                                     steps=400)
        assert cached == uncached
