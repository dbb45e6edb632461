"""The APEX proof-of-execution protocol.

A PoX exchange is a remote-attestation exchange whose measurement
additionally covers the EXEC flag, the metadata region (challenge and
ER/OR geometry), the executable region and the output region.  The
verifier accepts iff the measurement matches its reference copy of ER,
the metadata it issued, the outputs reported by the prover and
``EXEC = 1``.

:class:`PoxProtocol` drives the whole flow against a simulated device:
provisioning, challenge delivery, execution of ER and the final
attestation.  ASAP's protocol subclass extends it with the IVT report
(see :mod:`repro.core.pox`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apex.hwmod import PoxMonitorBase
from repro.apex.regions import MetadataRegion, PoxConfig
from repro.vrased.protocol import Verifier
from repro.vrased.swatt import AttestationReport, SwAtt


#: Name of the EXEC scalar claim inside reports.
EXEC_CLAIM = "EXEC"
#: Name of the output-region snapshot inside reports.
OUTPUT_SNAPSHOT = "OR"


@dataclass
class PoxResult:
    """Outcome of verifying a proof of execution."""

    accepted: bool
    reason: str = ""
    claimed_exec: Optional[int] = None
    output: Optional[bytes] = None
    report: Optional[AttestationReport] = None

    def __bool__(self):
        return self.accepted


class PoxVerifier:
    """Verifier-side logic for proofs of execution."""

    def __init__(self, verifier: Optional[Verifier] = None):
        self.verifier = verifier or Verifier()
        #: Per-device reference state: config plus expected ER bytes.
        self._references: Dict[str, Dict] = {}

    # ------------------------------------------------------------ enrolment

    def enroll(self, device_id, master_key=None):
        """Provision a device key."""
        return self.verifier.enroll(device_id, master_key)

    def register_deployment(self, device_id, config: PoxConfig, er_bytes,
                            extra_regions=None):
        """Record the PoX geometry and the expected ER contents.

        ``extra_regions`` is a list of ``(region, expected bytes)`` pairs
        appended to the measured material (ASAP uses it for the IVT).
        """
        self._references[device_id] = {
            "config": config,
            "er_bytes": bytes(er_bytes),
            "extra": [(region, bytes(content)) for region, content in (extra_regions or [])],
        }

    def reference(self, device_id):
        """Return the recorded reference for *device_id*.

        :raises KeyError: if the device has no registered deployment.
        """
        return self._references[device_id]

    # ------------------------------------------------------------ protocol

    def create_request(self, device_id):
        """Issue a fresh PoX challenge."""
        return self.verifier.create_request(device_id)

    def expected_metadata(self, device_id, challenge):
        """The metadata bytes the prover is expected to have stored."""
        reference = self._references[device_id]
        config: PoxConfig = reference["config"]
        params = struct.pack(
            "<HHHH",
            config.executable.er_min, config.executable.er_max,
            config.output.region.start, config.output.region.end,
        )
        return bytes(challenge) + params

    def verify(self, report: AttestationReport) -> PoxResult:
        """Check a PoX report; returns a :class:`PoxResult`.

        Every rejection here is a terminal verdict for the report's
        challenge, including the structural ones decided before the
        measurement check -- the challenge is consumed either way, so a
        malformed-report probe can never keep a challenge alive for a
        later replay (and failed exchanges never accumulate
        issued-table entries).
        """
        device_id = report.device_id
        if device_id not in self._references:
            self.verifier.discard_challenge(report.challenge)
            return PoxResult(False, "unknown device %r" % device_id, report=report)
        reference = self._references[device_id]
        config: PoxConfig = reference["config"]

        claimed_exec = report.claim(EXEC_CLAIM)
        output = report.snapshots.get(OUTPUT_SNAPSHOT)
        if output is None:
            self.verifier.discard_challenge(report.challenge)
            return PoxResult(False, "report carries no output snapshot",
                             claimed_exec=claimed_exec, report=report)
        if len(output) != config.output.region.size:
            self.verifier.discard_challenge(report.challenge)
            return PoxResult(False, "output snapshot has the wrong size",
                             claimed_exec=claimed_exec, report=report)

        region_contents = self._reference_region_contents(
            device_id, report, config, reference, output
        )
        result = self.verifier.verify(
            report,
            scalars={EXEC_CLAIM: 1},
            region_contents=region_contents,
        )
        if not result.accepted:
            if claimed_exec == 0:
                return PoxResult(
                    False,
                    "EXEC = 0: execution did not occur or was tampered with",
                    claimed_exec=0, output=output, report=report,
                )
            return PoxResult(False, result.reason, claimed_exec=claimed_exec,
                             output=output, report=report)
        if claimed_exec != 1:
            # The MAC matched an EXEC=1 measurement, so a contradictory
            # clear-text claim indicates a malformed (but harmless) report.
            return PoxResult(False, "inconsistent EXEC claim",
                             claimed_exec=claimed_exec, output=output, report=report)
        policy_error = self._post_measurement_checks(device_id, report, reference)
        if policy_error:
            return PoxResult(False, policy_error, claimed_exec=1,
                             output=output, report=report)
        return PoxResult(True, "proof of execution accepted",
                         claimed_exec=1, output=output, report=report)

    # ------------------------------------------------------------ hooks

    def _reference_region_contents(self, device_id, report, config, reference, output):
        """Build the ``(region, expected bytes)`` list for the measurement."""
        contents = [
            (config.metadata.region, self.expected_metadata(device_id, report.challenge)),
            (config.executable.region, reference["er_bytes"]),
            (config.output.region, output),
        ]
        contents.extend(reference["extra"])
        return contents

    def _post_measurement_checks(self, device_id, report, reference):
        """Extra policy checks after the MAC matches (ASAP checks the IVT)."""
        return None


class PoxProtocol:
    """End-to-end PoX flow against a simulated device."""

    #: Architecture label (ASAP overrides it).
    architecture = "apex"

    def __init__(self, device, pox_verifier: PoxVerifier, device_id,
                 config: PoxConfig, monitor: PoxMonitorBase):
        self.device = device
        self.pox_verifier = pox_verifier
        self.device_id = device_id
        self.config = config
        self.monitor = monitor
        if not pox_verifier.verifier.key_store.has_device(device_id):
            pox_verifier.enroll(device_id)
        self.device_key = pox_verifier.verifier.key_store.get(device_id)
        self.swatt = SwAtt(self.device_key)
        self._active_challenge: Optional[bytes] = None

    # ------------------------------------------------------------ setup

    def provision(self):
        """Register the device's current ER contents as the reference."""
        er_bytes = self.device.memory.dump_region(self.config.executable.region)
        self.pox_verifier.register_deployment(
            self.device_id, self.config, er_bytes,
            extra_regions=self._extra_reference_regions(),
        )
        return er_bytes

    def _extra_reference_regions(self):
        """Extra measured regions with verifier-known contents (none for APEX)."""
        return []

    # ------------------------------------------------------------ protocol steps

    def deliver_challenge(self):
        """Step 1: obtain a challenge and store it in the metadata region."""
        request = self.pox_verifier.create_request(self.device_id)
        self.install_challenge(request.challenge)
        return request

    def install_challenge(self, challenge):
        """Prover-side half of challenge delivery.

        Stores *challenge* (plus the ER/OR geometry) in the metadata
        region and arms :meth:`attest`.  Split out of
        :meth:`deliver_challenge` so a networked prover
        (:class:`~repro.net.prover.ProverEndpoint`) can install a
        challenge received over a transport instead of reaching into
        the verifier directly.
        """
        self._active_challenge = bytes(challenge)
        self.config.metadata.write(
            self.device.memory, self._active_challenge,
            self.config.executable, self.config.output,
        )

    def call_executable(self, max_steps=20000, setup=None):
        """Step 2: run the executable region from entry to completion.

        ``setup(device)`` runs right before execution starts (typical use:
        schedule the asynchronous events of the scenario).  Returns the
        number of steps simulated.
        """
        if setup is not None:
            setup(self.device)
        # Untrusted code invokes ER with a CALL, so ER's final RET must
        # have somewhere legitimate to return to: emulate the call by
        # pushing the current (untrusted) program counter as the return
        # address before jumping to ER_min.
        cpu = self.device.cpu
        return_address = cpu.pc
        cpu.sp = (cpu.sp - 2) & 0xFFFF
        self.device.memory.load_word(cpu.sp, return_address)
        cpu.pc = self.config.executable.er_min
        return self.device.run(max_steps=max_steps, stop_condition=self.monitor.finished)

    def attest(self):
        """Step 3: compute the PoX report over META || ER || OR (+EXEC)."""
        if self._active_challenge is None:
            raise RuntimeError("deliver_challenge() must run before attest()")
        report = self.swatt.measure(
            self.device.memory,
            self._active_challenge,
            self._measured_regions(),
            scalars=self._measured_scalars(),
            snapshot_regions=self._snapshot_regions(),
        )
        return report

    def _measured_regions(self):
        return self.config.measured_regions()

    def _measured_scalars(self):
        # SW-Att is reached only by leaving ER, which clears EXEC unless
        # ER completes through ER_max: a run cut off with the PC still
        # inside ER measures EXEC = 0.
        if self.config.executable.region.contains(self.device.cpu.pc):
            return {EXEC_CLAIM: 0}
        return {EXEC_CLAIM: self.monitor.exec_value()}

    def _snapshot_regions(self):
        return {OUTPUT_SNAPSHOT: self.config.output.region}

    def verify(self, report) -> PoxResult:
        """Step 4: verifier-side validation."""
        return self.pox_verifier.verify(report)

    # ------------------------------------------------------------ one-shot

    def run(self, max_steps=20000, setup=None) -> PoxResult:
        """Run the complete exchange and return the verification result."""
        self.deliver_challenge()
        self.call_executable(max_steps=max_steps, setup=setup)
        report = self.attest()
        return self.verify(report)
