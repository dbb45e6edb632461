"""Behavioral CPU core for the MSP430-class ISA.

The core executes one instruction (or one interrupt entry, or one idle
low-power cycle) per :meth:`CPU.step` call and reports the
monitor-visible activity of that step as a
:class:`~repro.cpu.signals.SignalBundle`.

Each instruction is compiled once, when it is decoded, into a closure
that performs it (:mod:`repro.cpu.compiler`): opcode, operand modes and
registers, byte mode, masks, flag update and bus reporting are fixed at
decode time.  A fetch yields ``(execute, size, text, cycles)`` -- the
decode-cache entry -- and :meth:`CPU.step` calls ``execute()`` and
builds the bundle from what it returns.  Without a decode cache every
fetch decodes and compiles afresh.  :meth:`CPU.run_quiet` runs a
stretch of such steps back to back, given a monitor's quiet test: the
steps that monitor would settle without reading their bundle only count
their cycles, and the first step it must see ends the stretch with its
bundle.

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

from repro.cpu.compiler import compile_instruction
from repro.cpu.signals import MemoryRead, MemoryWrite, SignalBundle
from repro.isa.encoding import DecodeError, decode_instruction
from repro.isa.registers import PC, SP, SR, REGISTER_COUNT, StatusFlag
from repro.memory.ivt import InterruptVectorTable


class CPUError(Exception):
    """Raised on unrecoverable execution errors (bad opcodes, bad state)."""


#: Cycles consumed by an interrupt entry (accept + stack pushes + vector fetch).
INTERRUPT_ENTRY_CYCLES = 6
#: Cycles consumed by an idle (CPUOFF) step.
IDLE_CYCLES = 1

_GIE = int(StatusFlag.GIE)
_CPUOFF = int(StatusFlag.CPUOFF)
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
        #: Its closures act on this CPU: a cache serves one CPU.
        self.decode_cache = decode_cache
        #: Mutated in place, never rebound: compiled closures hold it.
        self.registers = [0] * REGISTER_COUNT
        self.cycle_count = 0
        self.step_count = 0
        #: ``(settled, cycles, last)`` of the latest :meth:`run_quiet` call.
        self.stretch = (0, 0, 0)

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
        registers = self.registers
        start_pc = registers[PC]
        sr = registers[SR]
        gie_before = (sr & _GIE) != 0

        if pending_interrupt is not None and gie_before:
            return self._enter_interrupt(
                pending_interrupt, start_pc, bool(sr & _CPUOFF))

        if sr & _CPUOFF:
            return self._bundle(start_pc, start_pc, gie_before, True,
                                "(sleep)", IDLE_CYCLES)

        # Inlined decode-cache hit path (the hottest branch in the whole
        # simulator); _fetch handles the miss and cache-less cases.
        cache = self.decode_cache
        if cache is not None:
            entry = cache._entries.get(start_pc)
            if entry is not None:
                cache.hits += 1
            else:
                entry = self._fetch(start_pc)
        else:
            entry = self._fetch(start_pc)
        execute, _, text, cycles = entry
        reads, writes = execute()
        self.cycle_count += cycles
        count = self.step_count = self.step_count + 1
        # Every field, in declaration order: a keyword call costs about
        # three times as much as a positional one.
        return SignalBundle(count, start_pc, registers[PC], False, None, gie_before,
                            False, False, text, writes, reads, False, (), (), cycles)

    def run_quiet(self, limit, quiet):
        """Run a stretch of steps a monitor settles as quiet, in one call.

        *quiet* is the monitor's quiet test ``(er_start, er_end,
        er_min)`` (:attr:`~repro.apex.hwmod.PoxMonitorBase.quiet_test`);
        the caller guarantees no DMA activity and no pending interrupt
        for up to *limit* (at least 1) steps.  An instruction step that
        writes no memory, keeps its PC and next PC on the same side of
        ``[er_start, er_end]`` and has its PC off ``er_min`` is settled:
        it counts its step and cycles, and no bundle is built for it.

        Returns ``None`` once *limit* steps are settled.  The first step
        that is not -- one that writes memory, crosses ER's boundary, runs
        at ``er_min`` or finds ``CPUOFF`` set -- ends the stretch, and its
        bundle is returned exactly as :meth:`step` builds it.  A decode
        miss is fetched and cached inside the stretch.

        The registers, the counters and ER's bounds are held in locals:
        ``step_count``, ``cycle_count`` and the decode cache's hits are
        brought up to date on the way out, also when a step raises
        :class:`CPUError`.  :attr:`stretch` is then ``(settled, cycles,
        last)``: the steps this call settled, their cycles, and the last
        one's cycles (0 when none settled).
        """
        er_start, er_end, er_min = quiet
        registers = self.registers
        cache = self.decode_cache
        entries = cache._entries if cache is not None else {}
        fetch = self._fetch
        cpuoff, pc_index, sr_index = _CPUOFF, PC, SR
        # The side of ER every settled step starts and ends on.
        inside = er_start <= registers[pc_index] <= er_end
        settled = total = cycles = hits = 0
        try:
            for settled in range(limit):
                sr = registers[sr_index]
                if sr & cpuoff:
                    break
                start_pc = registers[pc_index]
                entry = entries.get(start_pc)
                if entry is None:
                    entry = fetch(start_pc)
                else:
                    hits += 1
                reads, writes = entry[0]()
                next_pc = registers[pc_index]
                if (writes or start_pc == er_min
                        or (er_start <= next_pc <= er_end) is not inside):
                    step_cycles = entry[3]
                    self.cycle_count += step_cycles
                    self.step_count += 1
                    return SignalBundle(self.step_count + settled, start_pc, next_pc,
                                        False, None, (sr & _GIE) != 0, False, False,
                                        entry[2], writes, reads, False, (), (), step_cycles)
                # Read only once the step has run: a step that raises
                # leaves the last settled step's cycles here.
                cycles = entry[3]
                total += cycles
            else:
                settled = limit
                return None
        finally:
            self.step_count += settled
            self.cycle_count += total
            if cache is not None:
                cache.hits += hits
            self.stretch = (settled, total, cycles)
        # CPUOFF is set: this step idles, as step() builds it.
        return self.step()

    def _enter_interrupt(self, source, start_pc, cpu_off_before):
        """Perform interrupt entry for IVT index *source*."""
        writes = [self._push(self.pc), self._push(self.sr)]
        # Hardware clears GIE and the low-power bits so the ISR runs.
        self.registers[SR] &= _ISR_SR_MASK
        handler = self.ivt.get_vector(source)
        reads = [MemoryRead(self.ivt.entry_address(source), handler, 2)]
        self.pc = handler
        return self._bundle(
            start_pc, self.pc, True, cpu_off_before,
            "(interrupt entry #%d)" % source, INTERRUPT_ENTRY_CYCLES,
            irq_source=source, reads=reads, writes=writes,
        )

    def _bundle(self, pc, next_pc, gie, cpu_off, instruction, cycles,
                irq_source=None, reads=(), writes=()):
        """The bundle of a step that ran no instruction: sleep or IRQ entry."""
        self.cycle_count += cycles
        self.step_count += 1
        return SignalBundle(
            cycle=self.step_count, pc=pc, next_pc=next_pc,
            irq=irq_source is not None, irq_source=irq_source,
            gie=gie, cpu_off=cpu_off, instruction=instruction,
            writes=writes, reads=reads, cycles_consumed=cycles,
        )

    def _push(self, value):
        """Push a word on the stack; return the bus write."""
        self.sp = (self.sp - 2) & 0xFFFF
        value &= 0xFFFF
        self.memory.write_word(self.sp, value)
        return MemoryWrite(self.sp, value, 2)

    # ------------------------------------------------------------ fetch

    def _fetch(self, address):
        """Decode and compile the instruction at *address*.

        Returns the decode-cache entry ``(execute, size_bytes,
        rendered_text, cycles)``.  With a decode cache attached, a hit
        skips the memory peeks, the operand decode, the compile and the
        (surprisingly expensive) text rendering; the cached artifacts are
        pure functions of the instruction bytes and their address, so
        hits and misses produce identical signal bundles.
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
        execute = compile_instruction(
            instruction, (address + size) & 0xFFFF, self.registers, self.memory)
        text = instruction.render()
        cycles = instruction.cycles()
        if cache is not None:
            cache.store(address, execute, size, text, cycles)
        return execute, size, text, cycles
