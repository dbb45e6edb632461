"""Compile decoded instructions into closures.

:func:`compile_instruction` turns one decoded
:class:`~repro.isa.instructions.Instruction`, fetched at a known
address, into a closure that executes it.  Everything the instruction
and its address determine is fixed in the closure: the operation, the
operand modes and registers, byte or word width and its masks, which
status flags change, the fall-through and jump targets, and which bus
accesses the step reports.  Calling ``execute()`` performs the
instruction on the CPU's register file and memory -- the program
counter included -- and returns the step's CPU bus activity as
``(reads, writes)``: lists of :class:`~repro.cpu.signals.MemoryRead` /
:class:`~repro.cpu.signals.MemoryWrite` in bus order, ``()`` where the
step made no access of that kind.  :meth:`repro.cpu.core.CPU.step`
keeps the closure in the decode-cache entry and calls it; there is no
other execute path.

Closures come from *factories* generated as Python source once per
instruction shape -- opcode, byte mode and the kind of each operand
(``_operand_kind``) -- and memoised for the process, so a decode miss
costs one cache lookup and one factory call.  A factory computes
the instruction's constants once; values known at decode time (a
constant source, its complement, an absolute address) never reach the
per-step body.  :func:`factory_source` shows the source of a shape.

The generated bodies keep the simulator's MSP430 semantics exactly,
quirks included:

* register reads are masked to the operation width; ``R3`` (``CG``)
  reads as zero and drops writes; ``PC`` and ``SP`` writes are forced
  even;
* a symbolic operand addresses its extension word directly, as an
  absolute one does;
* autoincrement adds 1 in byte mode and 2 in word mode, wrapping at
  64 KiB without aligning the register (``@SP+`` in byte mode leaves SP
  odd); an indexed address wraps at 64 KiB;
* ``MOV`` does not read its destination; every other Format I opcode
  reads it, ``CMP`` and ``BIT`` included, and only those two skip the
  write-back;
* flags are written before the result, so a result written to ``SR``
  replaces them;
* ``SWPB`` and ``SXT`` write back a word whatever the byte flag;
* writing a result back to a constant or immediate operand raises
  :class:`~repro.cpu.core.CPUError`, after the flags were updated.
"""

from __future__ import annotations

import functools

from repro.cpu.signals import MemoryRead, MemoryWrite
from repro.isa.instructions import AddressingMode, InstructionFormat, Opcode
from repro.isa.registers import CG, PC, SP, StatusFlag

#: What a closure returns when its step made no bus access.
NO_ACCESS = ((), ())

_C = int(StatusFlag.C)
_Z = int(StatusFlag.Z)
_N = int(StatusFlag.N)
_V = int(StatusFlag.V)
#: Clears C/Z/N/V before arithmetic updates the condition codes.
_KEEP_NON_ARITH = ~(_C | _Z | _N | _V) & 0xFFFF
#: Clears C/Z/N (DADD leaves V untouched, as on hardware).
_KEEP_NON_CZN = ~(_C | _Z | _N) & 0xFFFF

#: Jump conditions over ``sr``.  ``C`` is bit 0 and ``N xor V`` is the
#: low bit of ``(sr >> 2) ^ (sr >> 8)``.
_JUMP_CONDITIONS = {
    Opcode.JNE: "not sr & %d" % _Z,
    Opcode.JEQ: "sr & %d" % _Z,
    Opcode.JNC: "not sr & %d" % _C,
    Opcode.JC: "sr & %d" % _C,
    Opcode.JN: "sr & %d" % _N,
    Opcode.JGE: "not ((sr >> 2) ^ (sr >> 8)) & 1",
    Opcode.JL: "((sr >> 2) ^ (sr >> 8)) & 1",
}


def _operand_kind(operand):
    """How a closure reaches *operand*: the operand part of a shape.

    ``zero`` is register ``R3`` (reads 0, drops writes), ``even`` is
    ``PC`` or ``SP`` (writes forced even), ``reg`` any other register,
    ``value`` a constant or immediate, ``fixed`` a symbolic or absolute
    address, and ``indexed``/``indirect``/``autoinc`` the register-based
    memory modes.  ``None`` stands for no operand.
    """
    if operand is None:
        return None
    mode = operand.mode
    if mode is AddressingMode.REGISTER:
        if operand.register == CG:
            return "zero"
        return "even" if operand.register in (PC, SP) else "reg"
    if mode is AddressingMode.CONSTANT or mode is AddressingMode.IMMEDIATE:
        return "value"
    if mode is AddressingMode.INDEXED:
        return "indexed"
    if mode is AddressingMode.SYMBOLIC or mode is AddressingMode.ABSOLUTE:
        return "fixed"
    if mode is AddressingMode.INDIRECT:
        return "indirect"
    return "autoinc"


def _shape(instruction):
    """The key a factory is generated and memoised under."""
    return (instruction.opcode, instruction.byte_mode,
            _operand_kind(instruction.src), _operand_kind(instruction.dst))


def compile_instruction(instruction, next_pc, registers, memory):
    """The closure executing *instruction*, whose fall-through is *next_pc*.

    The closure acts on *registers* (a CPU's register file, mutated in
    place) and *memory*; it is only valid for the address the
    instruction was fetched from.
    """
    return _factory(_shape(instruction))(registers, memory, instruction, next_pc)


# A pure function of the shape; the decoder yields fewer than a thousand.
@functools.lru_cache(maxsize=None)
def _factory(shape):
    """The factory for *shape*, generated and compiled once per process."""
    from repro.cpu.core import CPUError  # core imports this module

    opcode, byte_mode, src_kind, dst_kind = shape
    # Names the shape in tracebacks and profiles, e.g. "<ADD.B reg, fixed>".
    filename = "<%s%s %s, %s>" % (opcode.name, ".B" if byte_mode else "",
                                  src_kind, dst_kind)
    namespace = {"MemoryRead": MemoryRead, "MemoryWrite": MemoryWrite,
                 "CPUError": CPUError, "NO_ACCESS": NO_ACCESS}
    exec(compile(factory_source(shape), filename, "exec"), namespace)
    return namespace["factory"]


def factory_source(shape):
    """The Python source of the factory for *shape*."""
    opcode, byte_mode, src_kind, dst_kind = shape
    code = _Code(byte_mode)
    fmt = opcode.format
    if fmt is InstructionFormat.JUMP:
        _jump(code, opcode)
    elif opcode is Opcode.RETI:
        _reti(code)
    elif fmt is InstructionFormat.SINGLE_OPERAND:
        _single(code, opcode, src_kind)
    else:
        _double(code, opcode, src_kind, dst_kind)
    return code.render()


class _Code:
    """A factory under construction.

    ``setup`` lines run once, when the factory builds the closure;
    ``body`` lines run on every execution.  Names in ``constants`` are
    bound in ``setup``, so expressions over them only are folded there.
    ``reads``/``writes`` are the access expressions the body returns.
    """

    def __init__(self, byte_mode):
        self.mask = 0xFF if byte_mode else 0xFFFF
        self.msb = 0x80 if byte_mode else 0x8000
        self.width = 1 if byte_mode else 2
        self.setup = []
        self.body = []
        self.constants = set()
        self.reads = []
        self.writes = []

    def let(self, name, expression, *depends):
        """Bind *name*: in setup when it depends on constants only."""
        line = "%s = %s" % (name, expression)
        if all(dependency in self.constants for dependency in depends):
            self.setup.append(line)
            self.constants.add(name)
        else:
            self.body.append(line)

    def do(self, line):
        self.body.append(line)

    def word_address(self, address):
        """The expression recording a word access at *address*."""
        if address not in self.constants:
            return "%s & 0xFFFE" % address
        word = address + "_word"
        if word not in self.constants:
            self.let(word, "%s & 0xFFFE" % address, address)
        return word

    def render(self):
        lines = ["def factory(registers, memory, instruction, next_pc):"]
        body = "\n".join(self.body)
        lines += ["    %s = memory.%s" % (method, method) for method in _MEMORY_METHODS
                  if method + "(" in body]
        lines += ["    " + line for line in self.setup]
        lines.append("    def execute():")
        lines += ["        " + line for line in self.body]
        if self.reads or self.writes:
            lines.append("        return %s, %s" % (_list(self.reads), _list(self.writes)))
        else:
            lines.append("        return NO_ACCESS")
        lines.append("    return execute")
        return "\n".join(lines) + "\n"


_MEMORY_METHODS = ("read_byte", "read_word", "write_byte", "write_word")


def _list(expressions):
    return "[%s]" % ", ".join(expressions) if expressions else "()"


# ------------------------------------------------------------------ operands

def _operand(role):
    return "instruction.src" if role == "s" else "instruction.dst"


def _locate(code, kind, role):
    """Bind what reaching operand *role* (``s``/``d``) needs, reading nothing.

    A register operand gets its number in ``<role>_reg``, a memory
    operand its address in ``<role>a``.
    """
    operand = _operand(role)
    address = role + "a"
    if kind in ("reg", "even", "indexed", "indirect", "autoinc"):
        code.let(role + "_reg", operand + ".register")
    if kind == "indexed":
        code.let(role + "_offset", operand + ".value")
        code.do("%s = (registers[%s_reg] + %s_offset) & 0xFFFF" % (address, role, role))
    elif kind in ("indirect", "autoinc"):
        code.do("%s = registers[%s_reg] & 0xFFFF" % (address, role))
    elif kind == "fixed":
        code.let(address, operand + ".value & 0xFFFF")


def _load(code, kind, role):
    """Read operand *role* into the name *role*, at the operation width."""
    if kind == "zero":
        code.let(role, "0")
    elif kind == "value":
        code.let(role, "%s.value & 0x%X" % (_operand(role), code.mask))
    elif kind in ("reg", "even"):
        _locate(code, kind, role)
        code.do("%s = registers[%s_reg] & 0x%X" % (role, role, code.mask))
    else:
        _locate(code, kind, role)
        address = role + "a"
        if code.width == 1:
            code.do("%s = read_byte(%s)" % (role, address))
            code.reads.append("MemoryRead(%s, %s, 1)" % (address, role))
        else:
            code.do("%s = read_word(%s)" % (role, address))
            code.reads.append("MemoryRead(%s, %s, 2)" % (code.word_address(address), role))
        if kind == "autoinc":
            code.do("registers[%s_reg] = (registers[%s_reg] + %d) & 0xFFFF"
                    % (role, role, code.width))


def _store(code, kind, role, width):
    """Write the result ``r`` back to operand *role*, *width* bytes wide.

    Every result is already within its width, so only ``PC``/``SP``
    need a mask.
    """
    if kind == "zero":
        return
    if kind == "reg":
        code.do("registers[%s_reg] = r" % role)
    elif kind == "even":
        code.do("registers[%s_reg] = r & 0xFFFE" % role)
    elif kind == "value":
        _no_address(code, role)
    elif width == 1:
        code.do("write_byte(%sa, r)" % role)
        code.writes.append("MemoryWrite(%sa, r, 1)" % role)
    else:
        code.do("write_word(%sa, r)" % role)
        code.writes.append("MemoryWrite(%s, r, 2)" % code.word_address(role + "a"))


def _no_address(code, role):
    code.let("no_address", "'operand mode %%r has no address' %% (%s.mode,)"
             % _operand(role))
    code.do("raise CPUError(no_address)")


def _push(code, value):
    code.do("sp = (registers[1] - 2) & 0xFFFE")
    code.do("registers[1] = sp")
    code.do("write_word(sp, %s)" % value)
    code.writes.append("MemoryWrite(sp, %s, 2)" % value)


# -------------------------------------------------------------------- flags

def _set_flags(code, lines, keep=_KEEP_NON_ARITH):
    """Replace the condition codes in ``SR`` by *lines*, which set ``sr``."""
    code.do("sr = registers[2] & 0x%X" % keep)
    for line in lines:
        code.do(line)
    code.do("registers[2] = sr")


def _nz(msb):
    """``Z`` for a zero result, ``N`` from its top bit."""
    return ["if not r: sr |= %d" % _Z, "if r & 0x%X: sr |= %d" % (msb, _N)]


def _logic(msb):
    """``C`` for a non-zero result, else ``Z``; ``N`` from its top bit."""
    return ["sr |= %d if r else %d" % (_C, _Z), "if r & 0x%X: sr |= %d" % (msb, _N)]


# --------------------------------------------------------------- operations

def _jump(code, opcode):
    code.let("target", "(next_pc + instruction.jump_offset) & 0xFFFE")
    if opcode is Opcode.JMP:
        code.do("registers[0] = target")
    else:
        code.do("sr = registers[2]")
        code.do("registers[0] = target if %s else next_pc" % _JUMP_CONDITIONS[opcode])


def _reti(code):
    """Pop SR, then PC."""
    code.do("registers[0] = next_pc")
    code.do("sp = registers[1]")
    code.do("sr = read_word(sp)")
    code.do("registers[1] = (sp + 2) & 0xFFFE")
    code.do("registers[2] = sr")
    code.do("pc_sp = registers[1]")
    code.do("pc = read_word(pc_sp)")
    code.do("registers[1] = (pc_sp + 2) & 0xFFFE")
    code.do("registers[0] = pc & 0xFFFE")
    code.reads += ["MemoryRead(sp & 0xFFFE, sr, 2)", "MemoryRead(pc_sp, pc, 2)"]


def _single(code, opcode, kind):
    """Format II: the operand is read, then pushed, called or rewritten."""
    msb = code.msb
    code.do("registers[0] = next_pc")
    _load(code, kind, "s")
    if opcode is Opcode.PUSH:
        _push(code, "s")
    elif opcode is Opcode.CALL:
        code.do("pc = registers[0]")
        _push(code, "pc")
        code.do("registers[0] = s & 0xFFFE")
    elif opcode is Opcode.SWPB:
        code.let("r", "((s & 0xFF) << 8) | (s >> 8)", "s")
        _store(code, kind, "s", 2)
    elif opcode is Opcode.SXT:
        code.let("r", "s | 0xFF00 if s & 0x80 else s & 0xFF", "s")
        _set_flags(code, _logic(0x8000))
        _store(code, kind, "s", 2)
    else:
        if opcode is Opcode.RRA:
            code.let("r", "(s >> 1) | (s & 0x%X)" % msb, "s")
        else:  # RRC: the old carry enters at the top
            code.do("r = (s >> 1) | (0x%X if registers[2] & %d else 0)" % (msb, _C))
        _set_flags(code, ["if s & 1: sr |= %d" % _C] + _nz(msb))
        _store(code, kind, "s", code.width)


def _double(code, opcode, src_kind, dst_kind):
    """Format I: source, then destination, operation, flags, write-back."""
    mask, msb = code.mask, code.msb
    code.do("registers[0] = next_pc")
    _load(code, src_kind, "s")
    if opcode is Opcode.MOV:
        _locate(code, dst_kind, "d")
        code.let("r", "s", "s")
    else:
        _load(code, dst_kind, "d")
    if opcode in _CARRY_IN:
        addend = "s"
        if opcode not in (Opcode.ADD, Opcode.ADDC):
            code.let("b", "s ^ 0x%X" % mask, "s")
            addend = "b"
        code.do("t = d + %s%s" % (addend, _CARRY_IN[opcode]))
        code.do("r = t & 0x%X" % mask)
        _set_flags(code, ["if t > 0x%X: sr |= %d" % (mask, _C)] + _nz(msb)
                   + ["if ~(d ^ %s) & (d ^ r) & 0x%X: sr |= %d" % (addend, msb, _V)])
    elif opcode is Opcode.DADD:
        # Digit by digit from the carry in; Z and N see the unmasked sum.
        code.do("carry = registers[2] & %d" % _C)
        code.do("r = 0")
        code.do("for shift in %s:" % ((0, 4) if code.width == 1 else (0, 4, 8, 12),))
        code.do("    digit = ((d >> shift) & 0xF) + ((s >> shift) & 0xF) + carry")
        code.do("    carry = digit > 9")
        code.do("    r |= (digit - 10 if carry else digit) << shift")
        _set_flags(code, ["if carry: sr |= %d" % _C] + _nz(msb), keep=_KEEP_NON_CZN)
        code.do("r &= 0x%X" % mask)
    elif opcode in (Opcode.AND, Opcode.BIT):
        code.do("r = d & s")
        _set_flags(code, _logic(msb))
    elif opcode is Opcode.BIC:
        code.let("clear", "s ^ 0x%X" % mask, "s")
        code.do("r = d & clear")
    elif opcode is Opcode.BIS:
        code.do("r = d | s")
    elif opcode is Opcode.XOR:
        code.do("r = d ^ s")
        _set_flags(code, _logic(msb) + ["if d & s & 0x%X: sr |= %d" % (msb, _V)])
    if opcode is not Opcode.CMP and opcode is not Opcode.BIT:
        _store(code, dst_kind, "d", code.width)


#: The carry into the adder, per arithmetic opcode (``C`` is bit 0).
_CARRY_IN = {
    Opcode.ADD: "",
    Opcode.ADDC: " + (registers[2] & %d)" % _C,
    Opcode.SUB: " + 1",
    Opcode.SUBC: " + (registers[2] & %d)" % _C,
    Opcode.CMP: " + 1",
}
