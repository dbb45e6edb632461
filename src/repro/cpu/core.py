"""Behavioral CPU core for the MSP430-class ISA.

The core executes one instruction (or one interrupt entry, or one idle
low-power cycle) per :meth:`CPU.step` call and reports the
monitor-visible activity of that step as a
:class:`~repro.cpu.signals.SignalBundle`.

Fidelity notes
--------------

* Registers follow MSP430 conventions: ``R0`` = PC, ``R1`` = SP,
  ``R2`` = SR (with the :class:`~repro.isa.registers.StatusFlag` bits),
  ``R3`` = constant generator (reads as zero).
* Byte-mode operations on registers clear the high byte, as on the real
  hardware.
* Interrupt entry pushes PC then SR, clears ``GIE``/``CPUOFF`` and loads
  the handler address from the IVT entry of the accepted source;
  ``RETI`` pops SR then PC.  This is the behaviour ASAP relies on when
  reasoning about the program counter crossing the ER boundary
  (paper Fig. 5).
* Cycle counts come from the per-instruction estimates in
  :mod:`repro.isa.instructions`; they only matter for *relative*
  comparisons (the runtime-overhead and busy-wait experiments).
"""

from __future__ import annotations

from repro.isa.encoding import DecodeError, decode_instruction
from repro.isa.instructions import AddressingMode, InstructionFormat, Opcode
from repro.isa.registers import PC, SP, SR, CG, REGISTER_COUNT, StatusFlag
from repro.memory.ivt import InterruptVectorTable
from repro.cpu.signals import MemoryRead, MemoryWrite, SignalBundle


class CPUError(Exception):
    """Raised on unrecoverable execution errors (bad opcodes, bad state)."""


#: Cycles consumed by an interrupt entry (accept + stack pushes + vector fetch).
INTERRUPT_ENTRY_CYCLES = 6
#: Cycles consumed by an idle (CPUOFF) step.
IDLE_CYCLES = 1

# Plain-int status flag masks for the hot paths: IntFlag arithmetic
# re-instantiates enum members on every ``&``/``|``, which shows up as a
# top-three cost in the step-loop profile.
_C = int(StatusFlag.C)
_Z = int(StatusFlag.Z)
_N = int(StatusFlag.N)
_V = int(StatusFlag.V)
_GIE = int(StatusFlag.GIE)
_CPUOFF = int(StatusFlag.CPUOFF)
#: Clears C/Z/N/V before arithmetic updates the condition codes.
_KEEP_NON_ARITH = ~(_C | _Z | _N | _V) & 0xFFFF
#: Clears C/Z/N (DADD leaves V untouched, as on hardware).
_KEEP_NON_CZN = ~(_C | _Z | _N) & 0xFFFF
#: Interrupt entry clears GIE and the low-power bits so the ISR runs.
_ISR_SR_MASK = ~int(
    StatusFlag.GIE | StatusFlag.CPUOFF | StatusFlag.OSCOFF | StatusFlag.SCG1
) & 0xFFFF


class CPU:
    """The execution engine.

    The CPU is deliberately policy-free: it will happily execute malware,
    jump into the middle of the executable region or overwrite the IVT.
    Detecting (and proving the absence of) such behaviour is the job of
    the APEX/ASAP hardware monitors observing the emitted signal bundles.
    """

    def __init__(self, memory, ivt=None, decode_cache=None):
        self.memory = memory
        self.ivt = ivt if ivt is not None else InterruptVectorTable(memory)
        #: Optional :class:`~repro.cpu.decode_cache.DecodeCache`.  The
        #: owner (normally :class:`~repro.device.mcu.Device`) must
        #: register its invalidation hook as a memory write listener so
        #: entries never outlive the code bytes they were decoded from.
        self.decode_cache = decode_cache
        self.registers = [0] * REGISTER_COUNT
        self.cycle_count = 0
        self.step_count = 0
        self._writes = []
        self._reads = []
        # Per-opcode execute handlers: one dict lookup replaces the
        # format-property chain in the per-step dispatch.
        self._handlers = {}
        for opcode in Opcode:
            fmt = opcode.format
            if fmt is InstructionFormat.JUMP:
                self._handlers[opcode] = self._execute_jump
            elif fmt is InstructionFormat.SINGLE_OPERAND:
                self._handlers[opcode] = self._execute_single
            else:
                self._handlers[opcode] = self._execute_double

    # ------------------------------------------------------------ state

    @property
    def pc(self):
        """Current program counter."""
        return self.registers[PC]

    @pc.setter
    def pc(self, value):
        self.registers[PC] = value & 0xFFFE

    @property
    def sp(self):
        """Current stack pointer."""
        return self.registers[SP]

    @sp.setter
    def sp(self, value):
        self.registers[SP] = value & 0xFFFE

    @property
    def sr(self):
        """Current status register value."""
        return self.registers[SR]

    @sr.setter
    def sr(self, value):
        self.registers[SR] = value & 0xFFFF

    def flag(self, flag):
        """Return the boolean value of a :class:`StatusFlag`."""
        return bool(self.registers[SR] & int(flag))

    def set_flag(self, flag, value):
        """Set or clear a :class:`StatusFlag`."""
        flag = int(flag)
        if value:
            self.registers[SR] |= flag
        else:
            self.registers[SR] &= ~flag & 0xFFFF

    @property
    def interrupts_enabled(self):
        """``True`` when the general-interrupt-enable bit is set."""
        return bool(self.registers[SR] & _GIE)

    @property
    def sleeping(self):
        """``True`` when the CPU is in low-power mode (``CPUOFF``)."""
        return bool(self.registers[SR] & _CPUOFF)

    def reset(self, stack_top=None):
        """Reset the core: clear registers and load PC from the reset vector."""
        # In place, not a rebind: a held reference to the register file
        # stays live across warm (watchdog) resets.
        self.registers[:] = [0] * REGISTER_COUNT
        self.pc = self.ivt.get_reset_vector()
        if stack_top is not None:
            self.sp = stack_top
        self.cycle_count = 0
        self.step_count = 0

    # ------------------------------------------------------------ stepping

    def step(self, pending_interrupt=None):
        """Execute one step and return its :class:`SignalBundle`.

        *pending_interrupt* is the IVT index of the highest-priority
        pending, enabled interrupt (or ``None``).  The CPU accepts it
        when ``GIE`` is set -- the bundle then has ``irq`` asserted and
        ``irq_source`` naming the serviced index; a sleeping CPU with
        ``GIE`` clear stays asleep (as on the real device, where such a
        configuration would hang -- firmware is expected to sleep with
        interrupts enabled).
        """
        if self._writes:
            self._writes = []
        if self._reads:
            self._reads = []
        registers = self.registers
        start_pc = registers[PC]
        sr = registers[SR]
        gie_before = bool(sr & _GIE)

        if pending_interrupt is not None and gie_before:
            return self._enter_interrupt(
                pending_interrupt, start_pc, gie_before, bool(sr & _CPUOFF))

        if sr & _CPUOFF:
            return self._make_bundle(
                start_pc, start_pc, gie_before, True,
                instruction="(sleep)", cycles=IDLE_CYCLES,
            )

        # Inlined decode-cache hit path (the hottest branch in the whole
        # simulator); _fetch handles the miss and cache-less cases.
        cache = self.decode_cache
        if cache is not None:
            entry = cache._entries.get(start_pc)
            if entry is not None:
                cache.hits += 1
                instruction, size, text, cycles = entry
            else:
                instruction, size, text, cycles = self._fetch(start_pc)
        else:
            instruction, size, text, cycles = self._fetch(start_pc)
        registers[PC] = (start_pc + size) & 0xFFFF
        self._handlers[instruction.opcode](instruction)
        return self._make_bundle(
            start_pc, registers[PC], gie_before, False,
            instruction=text, cycles=cycles,
        )

    def _enter_interrupt(self, source, start_pc, gie_before, cpu_off_before):
        """Perform interrupt entry for IVT index *source*."""
        self._push(self.pc)
        self._push(self.sr)
        # Hardware clears GIE and the low-power bits so the ISR runs.
        self.registers[SR] &= _ISR_SR_MASK
        handler = self.ivt.get_vector(source)
        self._reads.append(MemoryRead(self.ivt.entry_address(source), handler, 2))
        self.pc = handler
        return self._make_bundle(
            start_pc, self.pc, gie_before, cpu_off_before,
            irq=True, irq_source=source,
            instruction="(interrupt entry #%d)" % source,
            cycles=INTERRUPT_ENTRY_CYCLES,
        )

    def _make_bundle(self, pc, next_pc, gie, cpu_off, irq=False, irq_source=None,
                     instruction=None, cycles=1):
        self.cycle_count += cycles
        self.step_count += 1
        # Non-empty access lists are handed over without copying (step()
        # rebinds fresh lists before reuse, so the bundle owns them);
        # no-access steps share an immutable empty tuple instead, which
        # keeps the retained per-step list from leaking into older
        # bundles when a later step appends to it.
        return SignalBundle(
            cycle=self.step_count,
            pc=pc,
            next_pc=next_pc,
            irq=irq,
            irq_source=irq_source,
            gie=gie,
            cpu_off=cpu_off,
            instruction=instruction,
            writes=self._writes or (),
            reads=self._reads or (),
            cycles_consumed=cycles,
        )

    # ------------------------------------------------------------ fetch

    def _fetch(self, address):
        """Decode the instruction at *address*.

        Returns ``(instruction, size_bytes, rendered_text, cycles)``.
        With a decode cache attached, a hit skips the memory peeks, the
        operand decode and the (surprisingly expensive) text rendering;
        the cached artifacts are pure functions of the instruction bytes,
        so hits and misses produce identical signal bundles.
        """
        cache = self.decode_cache
        if cache is not None:
            entry = cache._entries.get(address)
            if entry is not None:
                cache.hits += 1
                return entry
            cache.misses += 1
        words = [
            self.memory.peek_word(address),
            self.memory.peek_word((address + 2) & 0xFFFF),
            self.memory.peek_word((address + 4) & 0xFFFF),
        ]
        try:
            instruction, consumed = decode_instruction(words)
        except DecodeError as error:
            raise CPUError(
                "illegal instruction at 0x%04X: %s" % (address, error)
            ) from error
        size = 2 * consumed
        text = instruction.render()
        cycles = instruction.cycles()
        if cache is not None:
            cache.store(address, instruction, size, text, cycles)
        return instruction, size, text, cycles

    # ------------------------------------------------------------ memory helpers

    def _read_mem(self, address, byte_mode):
        if byte_mode:
            value = self.memory.read_byte(address)
            self._reads.append(MemoryRead(address, value, 1))
        else:
            value = self.memory.read_word(address)
            self._reads.append(MemoryRead(address & 0xFFFE, value, 2))
        return value

    def _write_mem(self, address, value, byte_mode):
        if byte_mode:
            self.memory.write_byte(address, value & 0xFF)
            self._writes.append(MemoryWrite(address, value & 0xFF, 1))
        else:
            self.memory.write_word(address, value & 0xFFFF)
            self._writes.append(MemoryWrite(address & 0xFFFE, value & 0xFFFF, 2))

    def _push(self, value):
        self.sp = (self.sp - 2) & 0xFFFF
        self._write_mem(self.sp, value, byte_mode=False)

    def _pop(self):
        value = self._read_mem(self.sp, byte_mode=False)
        self.sp = (self.sp + 2) & 0xFFFF
        return value

    # ------------------------------------------------------------ operands

    def _read_register(self, number, byte_mode):
        if number == CG:
            return 0
        value = self.registers[number]
        return value & 0xFF if byte_mode else value & 0xFFFF

    def _write_register(self, number, value, byte_mode):
        if number == CG:
            return
        if byte_mode:
            value &= 0xFF
        else:
            value &= 0xFFFF
        if number in (PC, SP):
            value &= 0xFFFE
        self.registers[number] = value

    def _operand_address(self, operand):
        """Compute the effective memory address of a memory operand."""
        mode = operand.mode
        if mode is AddressingMode.INDEXED:
            return (self.registers[operand.register] + operand.value) & 0xFFFF
        if mode in (AddressingMode.SYMBOLIC, AddressingMode.ABSOLUTE):
            return operand.value & 0xFFFF
        if mode in (AddressingMode.INDIRECT, AddressingMode.AUTOINCREMENT):
            return self.registers[operand.register] & 0xFFFF
        raise CPUError("operand mode %r has no address" % (mode,))

    def _read_operand(self, operand, byte_mode):
        """Read an operand value; returns ``(value, address-or-None)``."""
        mode = operand.mode
        if mode is AddressingMode.REGISTER:
            return self._read_register(operand.register, byte_mode), None
        if mode is AddressingMode.CONSTANT:
            value = operand.value & (0xFF if byte_mode else 0xFFFF)
            return value, None
        if mode is AddressingMode.IMMEDIATE:
            value = operand.value & (0xFF if byte_mode else 0xFFFF)
            return value, None
        address = self._operand_address(operand)
        value = self._read_mem(address, byte_mode)
        if mode is AddressingMode.AUTOINCREMENT:
            increment = 1 if byte_mode else 2
            self.registers[operand.register] = (
                self.registers[operand.register] + increment
            ) & 0xFFFF
        return value, address

    def _write_operand(self, operand, address, value, byte_mode):
        """Write *value* back to a destination operand."""
        if operand.mode is AddressingMode.REGISTER:
            self._write_register(operand.register, value, byte_mode)
            return
        if address is None:
            address = self._operand_address(operand)
        self._write_mem(address, value, byte_mode)

    # ------------------------------------------------------------ execution

    # .......................................................... jumps

    def _execute_jump(self, instruction):
        taken = self._jump_condition(instruction.opcode)
        if taken:
            self.pc = (self.pc + instruction.jump_offset) & 0xFFFF

    def _jump_condition(self, opcode):
        sr = self.registers[SR]
        c = bool(sr & _C)
        z = bool(sr & _Z)
        n = bool(sr & _N)
        v = bool(sr & _V)
        if opcode is Opcode.JNE:
            return not z
        if opcode is Opcode.JEQ:
            return z
        if opcode is Opcode.JNC:
            return not c
        if opcode is Opcode.JC:
            return c
        if opcode is Opcode.JN:
            return n
        if opcode is Opcode.JGE:
            return n == v
        if opcode is Opcode.JL:
            return n != v
        if opcode is Opcode.JMP:
            return True
        raise CPUError("not a jump opcode: %r" % (opcode,))

    # .......................................................... format II

    def _execute_single(self, instruction):
        opcode = instruction.opcode
        byte_mode = instruction.byte_mode

        if opcode is Opcode.RETI:
            self.sr = self._pop()
            self.pc = self._pop()
            return

        value, address = self._read_operand(instruction.src, byte_mode)
        mask = 0xFF if byte_mode else 0xFFFF
        msb = 0x80 if byte_mode else 0x8000

        if opcode is Opcode.PUSH:
            self._push(value if not byte_mode else value & 0xFF)
            return
        if opcode is Opcode.CALL:
            self._push(self.pc)
            self.pc = value
            return
        if opcode is Opcode.SWPB:
            result = ((value & 0xFF) << 8) | ((value >> 8) & 0xFF)
            self._write_operand(instruction.src, address, result, byte_mode=False)
            return
        if opcode is Opcode.SXT:
            result = value & 0xFF
            if result & 0x80:
                result |= 0xFF00
            self._set_logic_flags(result, 0xFFFF, 0x8000)
            self._write_operand(instruction.src, address, result, byte_mode=False)
            return
        if opcode is Opcode.RRA:
            carry = value & 1
            result = ((value & mask) >> 1) | (value & msb)
            sr = self.registers[SR] & _KEEP_NON_ARITH
            if carry:
                sr |= _C
            if result == 0:
                sr |= _Z
            if result & msb:
                sr |= _N
            self.registers[SR] = sr
            self._write_operand(instruction.src, address, result, byte_mode)
            return
        if opcode is Opcode.RRC:
            carry_in = msb if (self.registers[SR] & _C) else 0
            carry_out = value & 1
            result = ((value & mask) >> 1) | carry_in
            sr = self.registers[SR] & _KEEP_NON_ARITH
            if carry_out:
                sr |= _C
            if result == 0:
                sr |= _Z
            if result & msb:
                sr |= _N
            self.registers[SR] = sr
            self._write_operand(instruction.src, address, result, byte_mode)
            return
        raise CPUError("unhandled single-operand opcode %r" % (opcode,))

    # .......................................................... format I

    def _execute_double(self, instruction):
        opcode = instruction.opcode
        byte_mode = instruction.byte_mode
        mask = 0xFF if byte_mode else 0xFFFF
        msb = 0x80 if byte_mode else 0x8000

        src_value, _ = self._read_operand(instruction.src, byte_mode)
        # MOV/BIC/BIS never need the old destination value from memory,
        # but reading it models the real read-modify-write bus behaviour
        # closely enough and keeps the code uniform; MOV skips the read.
        if opcode is Opcode.MOV:
            dst_value, dst_address = 0, None
            if instruction.dst.mode is not AddressingMode.REGISTER:
                dst_address = self._operand_address(instruction.dst)
        else:
            dst_value, dst_address = self._read_operand(instruction.dst, byte_mode)

        write_back = True
        result = 0

        if opcode is Opcode.MOV:
            result = src_value & mask
        elif opcode in (Opcode.ADD, Opcode.ADDC):
            carry_in = 1 if (opcode is Opcode.ADDC and self.registers[SR] & _C) else 0
            result = self._add_and_set_flags(dst_value, src_value, carry_in, mask, msb)
        elif opcode in (Opcode.SUB, Opcode.SUBC, Opcode.CMP):
            carry_in = 1
            if opcode is Opcode.SUBC:
                carry_in = 1 if self.registers[SR] & _C else 0
            result = self._add_and_set_flags(
                dst_value, (~src_value) & mask, carry_in, mask, msb
            )
            if opcode is Opcode.CMP:
                write_back = False
        elif opcode is Opcode.DADD:
            result = self._decimal_add_and_set_flags(dst_value, src_value, byte_mode)
        elif opcode in (Opcode.BIT, Opcode.AND):
            result = dst_value & src_value & mask
            self._set_logic_flags(result, mask, msb)
            if opcode is Opcode.BIT:
                write_back = False
        elif opcode is Opcode.BIC:
            result = dst_value & (~src_value) & mask
        elif opcode is Opcode.BIS:
            result = (dst_value | src_value) & mask
        elif opcode is Opcode.XOR:
            result = (dst_value ^ src_value) & mask
            sr = self.registers[SR] & _KEEP_NON_ARITH
            if result == 0:
                sr |= _Z
            else:
                sr |= _C
            if result & msb:
                sr |= _N
            if (dst_value & msb) and (src_value & msb):
                sr |= _V
            self.registers[SR] = sr
        else:
            raise CPUError("unhandled double-operand opcode %r" % (opcode,))

        if write_back:
            self._write_operand(instruction.dst, dst_address, result, byte_mode)

    # .......................................................... flag helpers

    def _set_logic_flags(self, result, mask, msb):
        sr = self.registers[SR] & _KEEP_NON_ARITH
        if result & mask:
            sr |= _C
        else:
            sr |= _Z
        if result & msb:
            sr |= _N
        self.registers[SR] = sr

    def _add_and_set_flags(self, a, b, carry_in, mask, msb):
        a &= mask
        b &= mask
        total = a + b + carry_in
        result = total & mask
        sr = self.registers[SR] & _KEEP_NON_ARITH
        if total > mask:
            sr |= _C
        if result == 0:
            sr |= _Z
        if result & msb:
            sr |= _N
        if ~(a ^ b) & (a ^ result) & msb:
            sr |= _V
        self.registers[SR] = sr
        return result

    def _decimal_add_and_set_flags(self, a, b, byte_mode):
        digits = 2 if byte_mode else 4
        carry = 1 if self.registers[SR] & _C else 0
        result = 0
        for digit_index in range(digits):
            shift = 4 * digit_index
            digit = ((a >> shift) & 0xF) + ((b >> shift) & 0xF) + carry
            carry = 0
            if digit > 9:
                digit -= 10
                carry = 1
            result |= digit << shift
        mask = 0xFF if byte_mode else 0xFFFF
        msb = 0x80 if byte_mode else 0x8000
        sr = self.registers[SR] & _KEEP_NON_CZN
        if carry:
            sr |= _C
        if result == 0:
            sr |= _Z
        if result & msb:
            sr |= _N
        self.registers[SR] = sr
        return result & mask
