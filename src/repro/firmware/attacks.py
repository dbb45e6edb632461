"""Adversarial scenarios exercising the ASAP security argument.

The paper's adversary (Section 4.1) controls the prover's entire
software state: it can modify any writable memory, program DMA
transfers, and attempt to trigger arbitrary interrupts before, during or
after a proof of execution.  Each scenario here mounts one such attack
against the syringe-pump / blinker deployments and records whether the
defence behaved as the security argument predicts (an invalid proof --
either ``EXEC = 0`` or a verifier-side rejection).

The suite doubles as experiment E9 (``python -m repro.experiments E9``;
see "Running the experiments" in ``README.md``) and as the integration
test matrix in ``tests/integration/test_attack_scenarios.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.crypto.keys import DeviceKey
from repro.firmware.blinker import blinker_firmware
from repro.firmware.syringe_pump import PumpParameters, syringe_pump_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.memory.ivt import IVT_BASE
from repro.peripherals.registers import PeripheralRegisters
from repro.vrased.swatt import SwAtt


@dataclass
class AttackOutcome:
    """What happened when the scenario ran."""

    scenario: str
    accepted: bool
    exec_flag: int
    reason: str
    detected: bool

    def as_row(self):
        """Flat dictionary for bench tables."""
        return {
            "scenario": self.scenario,
            "accepted": self.accepted,
            "EXEC": self.exec_flag,
            "detected": self.detected,
            "reason": self.reason,
        }


@dataclass
class AttackScenario:
    """A named attack with an executable body."""

    name: str
    description: str
    body: Callable[[], AttackOutcome]
    expects_rejection: bool = True

    def run(self) -> AttackOutcome:
        """Execute the scenario and return its outcome."""
        return self.body()


def _outcome(name, result, monitor, expects_rejection=True) -> AttackOutcome:
    detected = (not result.accepted) if expects_rejection else result.accepted
    return AttackOutcome(
        scenario=name,
        accepted=result.accepted,
        exec_flag=monitor.exec_value(),
        reason=result.reason,
        detected=detected,
    )


def _pump_bench(architecture="asap") -> PoxTestbench:
    return PoxTestbench(
        syringe_pump_firmware(PumpParameters(dosage_cycles=120)),
        TestbenchConfig(architecture=architecture),
    )


# --------------------------------------------------------------------------
# Scenario bodies
# --------------------------------------------------------------------------

def _benign_baseline() -> AttackOutcome:
    bench = _pump_bench()
    result = bench.run_pox()
    return _outcome("benign-baseline", result, bench.monitor, expects_rejection=False)


def _dma_ivt_during_execution() -> AttackOutcome:
    bench = _pump_bench()

    def setup(device):
        # Malware pre-programmed a DMA transfer whose destination is the
        # IVT; it fires while ER is asleep waiting for the timer.
        device.dma.configure(source=0x0200, destination=IVT_BASE + 4, size_words=2)
        device.schedule(20, lambda d: d.dma.trigger(), label="dma-ivt")

    result = bench.run_pox(setup=setup)
    return _outcome("dma-write-ivt-during-execution", result, bench.monitor)


def _software_ivt_rewrite_after_execution() -> AttackOutcome:
    bench = _pump_bench()
    bench.run_execution_only()
    # After ER finished (but before attestation) malware redirects the
    # PORT1 vector at an arbitrary address inside ER.
    target = bench.executable.er_min + 4
    bench.device.write_word_as_cpu(bench.device.ivt.entry_address(2), target)
    bench.device.run_steps(3)
    result = bench.attest_and_verify()
    return _outcome("software-ivt-rewrite-before-attestation", result, bench.monitor)


def _er_modification_before_attestation() -> AttackOutcome:
    bench = _pump_bench()
    bench.run_execution_only()
    # Malware patches one instruction of ER after it executed.
    bench.device.write_word_as_cpu(bench.executable.er_min + 8, 0x4303)
    bench.device.run_steps(3)
    result = bench.attest_and_verify()
    return _outcome("er-modified-before-attestation", result, bench.monitor)


def _or_tamper_dma_after_execution() -> AttackOutcome:
    bench = _pump_bench()
    bench.run_execution_only()
    # A DMA transfer overwrites the reported dosage in the output region.
    or_start = bench.pox_config.output.region.start
    bench.device.dma.configure(source=0x0300, destination=or_start, size_words=2)
    bench.device.dma.trigger()
    bench.device.run_steps(6)
    result = bench.attest_and_verify()
    return _outcome("or-tampered-by-dma-before-attestation", result, bench.monitor)


def _untrusted_interrupt_during_execution() -> AttackOutcome:
    bench = PoxTestbench(blinker_firmware(authorized=False), TestbenchConfig())

    def setup(device):
        device.schedule_button_press(10)

    result = bench.run_pox(setup=setup)
    return _outcome("untrusted-interrupt-during-execution", result, bench.monitor)


def _mid_er_entry() -> AttackOutcome:
    bench = _pump_bench()
    bench.protocol.deliver_challenge()
    # Malware jumps into the middle of ER instead of calling ER_min,
    # hoping to skip the dosage-timer setup.
    bench.device.cpu.pc = bench.executable.er_min + 10
    bench.device.run_steps(40)
    result = bench.attest_and_verify()
    return _outcome("jump-into-middle-of-er", result, bench.monitor)


def _ivt_spoof_unused_vector_into_er() -> AttackOutcome:
    bench = _pump_bench()
    # Before the exchange, malware points an unused vector (index 4) at an
    # address inside ER that is *not* an intended ISR entry point.  The
    # write happens outside the protected window (load time), so EXEC can
    # still be 1 -- this is exactly the case the verifier-side IVT policy
    # check must catch.
    bench.device.ivt.set_vector(4, bench.executable.er_min + 6, load_time=True)
    result = bench.run_pox()
    return _outcome("ivt-vector-spoofed-into-er", result, bench.monitor)


def _forged_report_wrong_key() -> AttackOutcome:
    bench = _pump_bench()
    bench.protocol.deliver_challenge()
    bench.protocol.call_executable()
    # The adversary forges a report with a key of its own choosing (it
    # cannot read the real key thanks to VRASED's access control).
    fake_key = DeviceKey(device_id=bench.config.device_id, master_key=b"\x42" * 32)
    forger = SwAtt(fake_key)
    report = forger.measure(
        bench.device.memory,
        bench.protocol._active_challenge,
        bench.protocol._measured_regions(),
        scalars={"EXEC": 1},
        snapshot_regions=bench.protocol._snapshot_regions(),
    )
    result = bench.protocol.verify(report)
    return _outcome("forged-report-without-device-key", result, bench.monitor)


def _apex_rejects_any_interrupt() -> AttackOutcome:
    bench = PoxTestbench(blinker_firmware(authorized=True),
                         TestbenchConfig(architecture="apex"))

    def setup(device):
        device.schedule_button_press(10)

    result = bench.run_pox(setup=setup)
    return _outcome("apex-baseline-interrupt-during-execution", result, bench.monitor)


# --------------------------------------------------------------------------
# The suite
# --------------------------------------------------------------------------

def attack_suite() -> List[AttackScenario]:
    """The full adversarial scenario suite (experiment E9)."""
    return [
        AttackScenario(
            "benign-baseline",
            "No attack: the interrupt-driven pump completes and the proof "
            "is accepted.",
            _benign_baseline,
            expects_rejection=False,
        ),
        AttackScenario(
            "dma-write-ivt-during-execution",
            "DMA overwrites an IVT entry while ER executes ([AP1]/LTL 4).",
            _dma_ivt_during_execution,
        ),
        AttackScenario(
            "software-ivt-rewrite-before-attestation",
            "Software rewrites an IVT entry between execution and "
            "attestation ([AP1]).",
            _software_ivt_rewrite_after_execution,
        ),
        AttackScenario(
            "er-modified-before-attestation",
            "The executable is patched after running but before attestation.",
            _er_modification_before_attestation,
        ),
        AttackScenario(
            "or-tampered-by-dma-before-attestation",
            "DMA overwrites the output region before attestation.",
            _or_tamper_dma_after_execution,
        ),
        AttackScenario(
            "untrusted-interrupt-during-execution",
            "An interrupt whose handler lives outside ER fires during "
            "execution (Fig. 5(b)).",
            _untrusted_interrupt_during_execution,
        ),
        AttackScenario(
            "jump-into-middle-of-er",
            "Malware enters ER at an address other than ER_min (LTL 2).",
            _mid_er_entry,
        ),
        AttackScenario(
            "ivt-vector-spoofed-into-er",
            "An unused IVT vector is pointed at a non-entry address inside "
            "ER before the exchange (verifier-side policy check).",
            _ivt_spoof_unused_vector_into_er,
        ),
        AttackScenario(
            "forged-report-without-device-key",
            "The adversary fabricates a report without knowing the device "
            "key (report unforgeability).",
            _forged_report_wrong_key,
        ),
        AttackScenario(
            "apex-baseline-interrupt-during-execution",
            "Baseline: under plain APEX even an authorized interrupt "
            "invalidates the proof (Fig. 5(c)).",
            _apex_rejects_any_interrupt,
        ),
    ]
