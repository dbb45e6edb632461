"""MSP430-class instruction-set architecture.

This package models the 16-bit ISA of the class of low-end MCUs targeted
by the ASAP paper (openMSP430 / TI MSP430): a register file of sixteen
16-bit registers (with PC, SP, SR and the constant generator mapped onto
R0-R3), three instruction formats (two-operand, single-operand and
relative jumps) and the seven MSP430 addressing modes.

The package provides:

* :mod:`repro.isa.registers` -- register names and status-register flags.
* :mod:`repro.isa.instructions` -- instruction and operand data types.
* :mod:`repro.isa.encoding` -- binary encoder/decoder for the 16-bit
  instruction formats (including extension words).
* :mod:`repro.isa.assembler` -- a two-pass assembler for a small
  assembly dialect with sections, labels and data directives.
* :mod:`repro.isa.disassembler` -- the inverse mapping used by traces
  and debugging helpers.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PC": "repro.isa.registers",
    "SP": "repro.isa.registers",
    "SR": "repro.isa.registers",
    "CG": "repro.isa.registers",
    "REGISTER_NAMES": "repro.isa.registers",
    "register_number": "repro.isa.registers",
    "register_name": "repro.isa.registers",
    "StatusFlag": "repro.isa.registers",
    "AddressingMode": "repro.isa.instructions",
    "Operand": "repro.isa.instructions",
    "Opcode": "repro.isa.instructions",
    "Instruction": "repro.isa.instructions",
    "InstructionFormat": "repro.isa.instructions",
    "encode_instruction": "repro.isa.encoding",
    "decode_instruction": "repro.isa.encoding",
    "DecodeError": "repro.isa.encoding",
    "Assembler": "repro.isa.assembler",
    "AssemblyError": "repro.isa.assembler",
    "Section": "repro.isa.assembler",
    "AssembledImage": "repro.isa.assembler",
    "disassemble_word": "repro.isa.disassembler",
    "disassemble_range": "repro.isa.disassembler",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
