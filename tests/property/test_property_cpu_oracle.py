"""Differential oracle for the compiled CPU: closures vs the interpreter.

:class:`repro.cpu.core.CPU` compiles every instruction into a closure at
decode time.  The reference is the interpreter it replaced,
:class:`reference_cpu.ReferenceCPU`, which dispatches on the decoded
instruction every step.  Both run from the same registers and the same
64 KiB of memory, each with its own decode cache (or none), and after
every step they must agree on the registers, all of memory, the crash
latch and its reason, the cycle and step counters, the decode-cache
counters and every field of the step's :class:`SignalBundle` --
instruction text, reads, writes, ``cycles_consumed`` and ``cycle``
included.

* Programs: the random, memory-heavy and self-modifying generators of
  ``test_property_decode_cache``, with interrupts injected at drawn
  steps, decode cache on and off.
* Shapes: every opcode x source mode x destination mode x byte mode,
  with ``PC``/``SP``/``SR``/``CG`` as registers, wrapping indexed
  addresses, odd stack pointers and random flags, each one step from
  random state; and interrupt entry from every vector.
"""

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from reference_cpu import ReferenceCPU
from test_property_decode_cache import (
    BASE,
    _assemble_words,
    _program_bytes,
    _STOP_WATCHDOG,
    memory_heavy_instructions,
    register_files,
)
from test_property_isa import FORMAT_I_OPCODES, FORMAT_II_OPCODES, instructions

from repro.cpu.core import CPU, CPUError
from repro.cpu.decode_cache import DecodeCache
from repro.cpu.signals import SignalBundle
from repro.isa.encoding import encode_instruction
from repro.isa.instructions import AddressingMode, Instruction, Opcode, Operand
from repro.isa.registers import CG, PC, SP, SR, StatusFlag
from repro.memory.ivt import IVT_BASE, InterruptVectorTable
from repro.memory.memory import Memory

GIE = int(StatusFlag.GIE)
CPUOFF = int(StatusFlag.CPUOFF)
#: Stack top after a device reset (top of the default data region).
STACK_TOP = 0x1200


class Machine:
    """One CPU on its own memory, with the crash latch a ``Device`` keeps."""

    def __init__(self, cpu_class, image, registers, decode_cache):
        self.memory = Memory()
        self.memory.load_bytes(0, image)
        self.cache = DecodeCache() if decode_cache else None
        if self.cache is not None:
            self.memory.add_write_listener(self.cache.invalidate_range)
        self.cpu = cpu_class(self.memory, InterruptVectorTable(self.memory),
                             decode_cache=self.cache)
        self.cpu.registers[:] = registers
        self.crashed = False
        self.crash_reason = ""

    def step(self, pending=None):
        """The step's bundle; ``None`` once crashed, as ``Device`` latches."""
        if self.crashed:
            return None
        try:
            return self.cpu.step(pending)
        except CPUError as error:
            self.crashed = True
            self.crash_reason = str(error)
            return None

    def counters(self):
        cache = self.cache
        return (self.cpu.cycle_count, self.cpu.step_count,
                None if cache is None else (cache.hits, cache.misses, cache.invalidations))


def assert_same_step(compiled, reference, bundle, expected, context):
    if expected is None or bundle is None:
        assert bundle is expected, context
    else:
        for field in fields(SignalBundle):
            name = field.name
            assert getattr(bundle, name) == getattr(expected, name), (context, name)
    assert compiled.cpu.registers == reference.cpu.registers, context
    assert (compiled.crashed, compiled.crash_reason) == (
        reference.crashed, reference.crash_reason), context
    assert compiled.counters() == reference.counters(), context
    assert compiled.memory.dump(0, 0x10000) == reference.memory.dump(0, 0x10000), context


def run_both(image, registers, steps, decode_cache, interrupts=None, label=""):
    """Step both CPUs in lockstep, comparing after every step."""
    interrupts = interrupts or {}
    compiled = Machine(CPU, image, registers, decode_cache)
    reference = Machine(ReferenceCPU, image, registers, decode_cache)
    for number in range(steps):
        pending = interrupts.get(number)
        bundle = compiled.step(pending)
        expected = reference.step(pending)
        assert_same_step(compiled, reference, bundle, expected,
                         "%s step %d (cache %s)" % (label, number, decode_cache))
        if reference.crashed:
            break


# ------------------------------------------------------------------ programs

def program_image(program):
    """64 KiB holding *program* at BASE; every IVT vector points at it."""
    image = bytearray(0x10000)
    image[BASE:BASE + len(program)] = program
    for address in range(IVT_BASE, 0x10000, 2):
        image[address] = BASE & 0xFF
        image[address + 1] = BASE >> 8
    return bytes(image)


def start_registers(register_values, status):
    return [BASE, STACK_TOP, status, 0] + list(register_values)


#: SR at the start: interrupts off, on, or on and asleep until one comes.
statuses = st.sampled_from((0, GIE, GIE | CPUOFF))
interrupt_schedules = st.dictionaries(
    st.integers(min_value=0, max_value=299), st.integers(min_value=0, max_value=14),
    max_size=4)


def self_modifying_body(rewrite_word):
    """``loop: INC R6 / CMP #24, R6 / JL loop``, then smash the INC with
    *rewrite_word* and jump back into the loop (as in
    ``test_property_decode_cache``)."""
    loop_address = BASE + len(_assemble_words([_STOP_WATCHDOG])) * 2
    body = [
        Instruction(Opcode.ADD, src=Operand.imm(1), dst=Operand.reg(6)),
        Instruction(Opcode.CMP, src=Operand.imm(24), dst=Operand.reg(6)),
        Instruction(Opcode.JL, jump_offset=0),
        Instruction(Opcode.MOV, src=Operand.imm(rewrite_word),
                    dst=Operand.absolute(loop_address)),
        Instruction(Opcode.JMP, jump_offset=0),
    ]
    sizes = [instruction.size_words() * 2 for instruction in body]
    jl_pc = loop_address + sizes[0] + sizes[1]
    body[2] = Instruction(Opcode.JL, jump_offset=loop_address - (jl_pc + 2))
    jmp_pc = jl_pc + sizes[2] + sizes[3]
    body[4] = Instruction(Opcode.JMP, jump_offset=loop_address - (jmp_pc + 2))
    return body


class TestProgramsMatchTheInterpreter:
    @given(body=st.lists(instructions(), min_size=1, max_size=16),
           register_values=register_files, status=statuses,
           interrupts=interrupt_schedules, decode_cache=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_programs(self, body, register_values, status, interrupts,
                             decode_cache):
        run_both(program_image(_program_bytes(body)),
                 start_registers(register_values, status), 300, decode_cache,
                 interrupts)

    @given(body=st.lists(memory_heavy_instructions(), min_size=1, max_size=16),
           register_values=register_files, status=statuses,
           interrupts=interrupt_schedules, decode_cache=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_memory_heavy_programs(self, body, register_values, status,
                                   interrupts, decode_cache):
        run_both(program_image(_program_bytes(body)),
                 start_registers(register_values, status), 300, decode_cache,
                 interrupts)

    @given(rewrite_word=st.integers(min_value=0, max_value=0xFFFF),
           register_values=register_files, decode_cache=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_self_modifying_programs(self, rewrite_word, register_values,
                                     decode_cache):
        run_both(program_image(_program_bytes(self_modifying_body(rewrite_word))),
                 start_registers(register_values, 0), 400, decode_cache)


# -------------------------------------------------------------------- shapes

def symbolic(address):
    return Operand(AddressingMode.SYMBOLIC, register=PC, value=address)


#: One or more of every source mode the decoder yields, with the
#: architectural registers where the mode allows them.  ``R3`` and
#: ``SR`` in the constant-generator encodings decode as constants.
SOURCES = (
    [Operand.reg(number) for number in (PC, SP, SR, CG, 4, 15)]
    + [Operand.imm(value) for value in (0, 1, 2, 4, 8, 0xFFFF, 0x7FFF, 0x8000, 0x0080,
                                        0x1234)]
    + [Operand.indexed(SP, 2), Operand.indexed(4, 0x0011), Operand.indexed(15, 0xFFFF)]
    + [symbolic(0x0400), Operand.absolute(0x0401)]
    + [Operand.indirect(number) for number in (PC, SP, 4)]
    + [Operand.indirect(number, autoincrement=True) for number in (SP, 4, 15)]
)

#: Every destination mode: ``PC`` (written even), ``SP``, ``SR`` (the
#: write-back replaces the flags), ``CG`` (the write-back is dropped),
#: and memory indexed off ``SP``/``CG`` and wrapping past 0xFFFF.
DESTINATIONS = (
    [Operand.reg(number) for number in (PC, SP, SR, CG, 4, 15)]
    + [Operand.indexed(SP, 0), Operand.indexed(CG, 0x0200), Operand.indexed(4, 0x0003),
       Operand.indexed(15, 0xFFFF)]
    + [symbolic(0x0402), Operand.absolute(0x0405)]
)

#: Random 64 KiB images the shape cases rotate through.
IMAGES = [random.Random(seed).randbytes(0x10000) for seed in range(4)]


def shape_cases(opcode):
    if opcode in FORMAT_I_OPCODES:
        return [Instruction(opcode, src=src, dst=dst, byte_mode=byte_mode)
                for src in SOURCES for dst in DESTINATIONS for byte_mode in (False, True)]
    if opcode in FORMAT_II_OPCODES:
        return [Instruction(opcode, src=src, byte_mode=byte_mode)
                for src in SOURCES for byte_mode in (False, True)]
    if opcode is Opcode.RETI:
        return [Instruction(Opcode.RETI)] * 16
    return [Instruction(opcode, jump_offset=offset)
            for offset in (-1024, -2, 0, 1022) for _ in range(8)]


def random_state(rng, instruction, address=0xE000):
    """A random image with *instruction* at *address*, random registers
    with PC at it."""
    image = bytearray(rng.choice(IMAGES))
    for index, word in enumerate(encode_instruction(instruction)):
        image[address + 2 * index] = word & 0xFF
        image[address + 2 * index + 1] = word >> 8
    registers = [rng.randrange(0x10000) for _ in range(16)]
    registers[PC] = address
    return bytes(image), registers


@pytest.mark.parametrize("decode_cache", (True, False), ids=("cache-on", "cache-off"))
@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda opcode: opcode.name)
def test_every_shape_matches_the_interpreter(opcode, decode_cache):
    rng = random.Random(opcode.name)
    for instruction in shape_cases(opcode):
        image, registers = random_state(rng, instruction)
        registers[SR] &= ~CPUOFF
        run_both(image, registers, 1, decode_cache, label=instruction.render())


def test_interrupt_entry_matches_the_interpreter():
    """Entry from every vector, awake or asleep, with even and odd SP;
    a pending interrupt with GIE clear is not taken."""
    rng = random.Random("irq")
    body = Instruction(Opcode.ADD, src=Operand.reg(4), dst=Operand.reg(5))
    for source in range(16):
        for status in (GIE, GIE | CPUOFF, 0, CPUOFF):
            for stack in (STACK_TOP, STACK_TOP - 1):
                image, registers = random_state(rng, body)
                registers[SP], registers[SR] = stack, status
                run_both(image, registers, 3, True, {0: source, 1: source},
                         label="IRQ %d from SR 0x%X" % (source, status))
