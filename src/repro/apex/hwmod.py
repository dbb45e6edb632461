"""The APEX hardware module: the EXEC-flag state machine.

The monitor owns the 1-bit ``EXEC`` flag.  No software can write it;
it is set when execution (re)starts at the legal entry point ``ER_min``
and cleared whenever any of the architecture's rules is violated.  The
rules implemented here are the paper's LTL 1-3 plus the memory
protection conditions of Section 2.3:

``ltl1-exit``        ER may only be left from its last instruction.
``ltl2-entry``       ER may only be entered at its first instruction.
``ltl3-interrupt``   no interrupt may occur while ER executes
                     (APEX only -- ASAP removes this rule).
``er-modified``      ER is immutable (CPU and DMA) once execution starts.
``or-modified``      only ER's own execution may write the output region.
``or-dma``           DMA never writes the output region.
``metadata-modified`` the challenge/parameter area is immutable.
``dma-during-er``    DMA must stay quiet while ER executes.

:class:`PoxMonitorBase` carries everything shared with ASAP;
:class:`ApexMonitor` adds the LTL 3 interrupt rule.

The hardware checks every rule each cycle at no cost.  Here most steps
never reach the monitor: a step is *quiet* -- no CPU or DMA write,
``dma_en`` low, no irq, PC and next PC on the same side of ER, PC not
``ER_min`` -- when no rule can fire on it and EXEC cannot change, and
the monitor declares that test as data, :attr:`PoxMonitorBase.quiet_test`
(ER's bounds and ``ER_min`` as ints, read once from the frozen
:class:`~repro.apex.regions.PoxConfig`).  With tracing off and this
monitor alone attached, the device hands the test to
:meth:`~repro.cpu.core.CPU.run_quiet`, which settles a whole stretch of
such steps in one call without building a bundle, and calls
:meth:`PoxMonitorBase.observe_quiet` where a stretch ends without one:
a ``pox`` exchange is 12 such calls that settle 2,508 of its 2,525
steps, and the monitor's ``observe`` sees the other 17.  (A step at
``ER_max`` that stays in ER changes nothing either, and one that leaves
ER is not same-side, so no ``ER_max`` test is needed.)

``observe`` keeps the same test for the bundles it is shown: right
after its two PC tests it settles a quiet step by storing its PC-in-ER
bit and returning.  Every other step runs all the rules.  The four
memory rules (``er-modified``, ``or-modified``, ``or-dma``,
``metadata-modified``) only run on a step that carries a CPU or DMA
write, since no other step can break them; they compare each write's
byte span with the region bounds
(:meth:`~repro.cpu.signals.SignalBundle.writes_into`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apex.regions import PoxConfig
from repro.cpu.signals import SignalBundle


@dataclass(frozen=True)
class ExecViolation:
    """A rule violation that cleared the EXEC flag."""

    rule: str
    step: int
    detail: str = ""


class PoxMonitorBase:
    """Shared EXEC-flag logic for the APEX and ASAP monitors."""

    #: Human-readable architecture name (used in traces and reports).
    architecture = "pox-base"

    def __init__(self, config: PoxConfig):
        self.config = config
        executable = config.executable
        self._er_start = executable.region.start
        self._er_end = executable.region.end
        self._er_min = executable.er_min
        self._er_max = executable.er_max
        #: ``(er_start, er_end, er_min)``: a step on the quiet branch of
        #: the device's loop (no DMA, no irq) that writes no memory, keeps
        #: its PC and next PC on one side of ``[er_start, er_end]`` and has
        #: its PC off ``er_min`` is one this monitor settles as quiet
        #: (:meth:`~repro.cpu.core.CPU.run_quiet` applies it).
        self.quiet_test = (self._er_start, self._er_end, self._er_min)
        self.exec_flag = False
        self.violations: List[ExecViolation] = []
        self.execution_started = False
        self.execution_completed = False
        self._last_pc_in_er = False

    # ------------------------------------------------------------ lifecycle

    def reset(self):
        """Reset the monitor (EXEC returns to 0)."""
        self.exec_flag = False
        self.violations = []
        self.execution_started = False
        self.execution_completed = False
        self._last_pc_in_er = False

    def signal_values(self):
        """Signals exported into execution traces (Fig. 5 waveforms)."""
        return {
            "EXEC": 1 if self.exec_flag else 0,
            "PC_in_ER": 1 if self._last_pc_in_er else 0,
        }

    # ------------------------------------------------------------ observation

    def observe(self, bundle: SignalBundle):
        """Process one signal bundle: apply every rule, then update EXEC."""
        pc = bundle.pc
        er_start = self._er_start
        er_end = self._er_end
        # Masked as MemoryRegion.contains masks an address.
        pc_in_er = er_start <= (pc & 0xFFFF) <= er_end
        next_in_er = er_start <= (bundle.next_pc & 0xFFFF) <= er_end
        if (pc_in_er is next_in_er and pc != self._er_min
                and not (bundle.writes or bundle.dma_writes
                         or bundle.dma_en or bundle.irq)):
            # A quiet step: no rule can fire and EXEC cannot change.
            self._last_pc_in_er = pc_in_er
            return
        violations = self.violations
        violations_before = len(violations)

        if pc_in_er != next_in_er:
            if pc_in_er:
                if pc != self._er_max:
                    self._record(
                        "ltl1-exit", bundle,
                        "ER left from 0x%04X (legal exit is 0x%04X)"
                        % (pc, self._er_max),
                    )
            elif bundle.next_pc != self._er_min:
                self._record(
                    "ltl2-entry", bundle,
                    "ER entered at 0x%04X (legal entry is 0x%04X)"
                    % (bundle.next_pc, self._er_min),
                )
        if bundle.writes or bundle.dma_writes:
            self._check_memory_rules(bundle, pc_in_er)
        if pc_in_er and bundle.dma_en:
            self._record("dma-during-er", bundle, "DMA active during ER execution")
        self._check_extra_rules(bundle, pc_in_er)

        if len(violations) > violations_before:
            self.exec_flag = False
        elif pc == self._er_min:
            # Execution (re)starts at the legal entry point.
            self.exec_flag = True
            self.execution_started = True
            self.execution_completed = False

        if (
            pc == self._er_max
            and not next_in_er
            and self.execution_started
            and not self.execution_completed
        ):
            self.execution_completed = True

        self._last_pc_in_er = pc_in_er

    def observe_quiet(self, pc):
        """Settle a stretch of quiet steps that no bundle was built for.

        Every step of the stretch ran with its PC on the side of ER that
        *pc* lies on, so this stores what ``observe`` would have stored.
        """
        self._last_pc_in_er = self._er_start <= (pc & 0xFFFF) <= self._er_end

    def finished(self, _bundle, _device):
        """Stop condition of an ER run: ER completed through ``ER_max``.

        It reads no bundle field and a quiet step cannot change its
        answer, so the device tests it only after the steps it builds a
        bundle for.
        """
        return self.execution_completed

    # ------------------------------------------------------------ rules

    def _check_memory_rules(self, bundle: SignalBundle, pc_in_er):
        """The rules only a CPU or DMA write can break."""
        config = self.config
        executable = config.executable.region
        output = config.output.region
        metadata = config.metadata.region

        if bundle.writes_into(executable) or bundle.dma_writes_into(executable):
            self._record("er-modified", bundle, "write into the executable region")

        if bundle.writes_into(output) and not pc_in_er:
            self._record(
                "or-modified", bundle,
                "output region written while PC=0x%04X is outside ER" % bundle.pc,
            )
        if bundle.dma_writes_into(output):
            self._record("or-dma", bundle, "DMA write into the output region")

        if bundle.writes_into(metadata) or bundle.dma_writes_into(metadata):
            self._record("metadata-modified", bundle, "write into the metadata region")

    def _check_extra_rules(self, bundle: SignalBundle, pc_in_er):
        """Architecture-specific rules (overridden by subclasses).

        *pc_in_er* is the step's PC-in-ER test, already made.
        """

    def _record(self, rule, bundle, detail=""):
        self.violations.append(
            ExecViolation(rule=rule, step=bundle.cycle, detail=detail)
        )

    # ------------------------------------------------------------ queries

    @property
    def violated(self):
        """``True`` if any rule has been violated since the last reset."""
        return bool(self.violations)

    def violations_for(self, rule):
        """Return the violations of one named rule."""
        return [violation for violation in self.violations if violation.rule == rule]

    def first_violation(self) -> Optional[ExecViolation]:
        """Return the earliest violation, or ``None``."""
        return self.violations[0] if self.violations else None

    def exec_value(self):
        """The EXEC flag as the 0/1 integer the attestation measures."""
        return 1 if self.exec_flag else 0


class ApexMonitor(PoxMonitorBase):
    """The original APEX monitor: interrupts always clear EXEC (LTL 3)."""

    architecture = "apex"

    def _check_extra_rules(self, bundle: SignalBundle, pc_in_er):
        if pc_in_er and bundle.irq:
            self._record(
                "ltl3-interrupt", bundle,
                "interrupt requested while ER executes (APEX forbids all interrupts)",
            )
