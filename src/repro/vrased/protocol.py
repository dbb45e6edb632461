"""The remote-attestation challenge-response protocol (paper Fig. 1).

The protocol has four steps:

1. the verifier sends an attestation request containing a fresh
   challenge (optionally authenticated with a request-authentication
   sub-key so the prover can reject spurious requests),
2. the prover computes an authenticated integrity check (HMAC) over the
   attested memory and the challenge,
3. the prover returns the report,
4. the verifier recomputes the expected measurement from its reference
   copy of the software and compares.

:class:`AttestationProtocol` drives both ends against a simulated
:class:`~repro.device.Device`; :class:`Verifier` is reusable by the
APEX/ASAP PoX protocols, which extend the measured material.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.crypto.keys import DeviceKey, KeyStore, constant_time_compare
from repro.memory.layout import MemoryRegion
from repro.vrased.config import VrasedConfig
from repro.vrased.hwmod import VrasedMonitor
from repro.vrased.swatt import AttestationReport, SwAtt


#: Default challenge length in bytes.
CHALLENGE_LENGTH = 32

#: Default cap on simultaneously outstanding challenges *per device*.
#: The bound is per device (not global) so one chatty or misbehaving
#: prover exhausts only its own quota and can never evict another
#: device's in-flight challenge.
MAX_ISSUED_PER_DEVICE = 64

#: Default time-to-live of an issued challenge, in seconds.  A report
#: for an expired challenge is rejected as stale, and expired entries
#: are pruned from the table, so abandoned exchanges (prover crashed,
#: packet lost) cannot grow verifier memory without bound.
CHALLENGE_TTL_SECONDS = 60.0


@dataclass(frozen=True)
class AttestationRequest:
    """A verifier-issued attestation request."""

    challenge: bytes
    auth_token: bytes

    def verify_token(self, device_key: DeviceKey):
        """Prover-side check that the request came from the verifier."""
        expected = device_key.authentication_mac().tag(self.challenge)
        return constant_time_compare(expected, self.auth_token)


@dataclass
class AttestationResult:
    """Outcome of verifying a report."""

    accepted: bool
    reason: str = ""
    report: Optional[AttestationReport] = None

    def __bool__(self):
        return self.accepted


@dataclass(frozen=True)
class IssuedChallenge:
    """Bookkeeping for one outstanding challenge."""

    device_id: str
    issued_at: float


class Verifier:
    """The verifier (Vrf): issues challenges and validates reports.

    The issued-challenge table is **bounded and single-use**: a
    challenge is consumed on *every* terminal verdict (success,
    measurement mismatch, wrong device) -- a once-rejected report can
    never be retried against the same challenge -- at most
    ``max_issued_per_device`` challenges are outstanding per device
    (issuing more evicts that device's oldest, never another
    device's), and entries older than ``challenge_ttl`` are pruned, so
    abandoned exchanges cannot grow the table without bound.
    ``clock`` is injectable for deterministic TTL tests.
    """

    def __init__(self, key_store: Optional[KeyStore] = None, rng=os.urandom,
                 max_issued_per_device: int = MAX_ISSUED_PER_DEVICE,
                 challenge_ttl: Optional[float] = CHALLENGE_TTL_SECONDS,
                 clock=time.monotonic):
        if max_issued_per_device < 1:
            raise ValueError("max_issued_per_device must be >= 1, got %r"
                             % max_issued_per_device)
        if challenge_ttl is not None and challenge_ttl <= 0:
            raise ValueError("challenge_ttl must be positive or None, got %r"
                             % challenge_ttl)
        self.key_store = key_store or KeyStore()
        self._rng = rng
        self.max_issued_per_device = max_issued_per_device
        self.challenge_ttl = challenge_ttl
        self._clock = clock
        #: Outstanding challenges in issue order (== expiry order, since
        #: the TTL is uniform): ``{challenge: IssuedChallenge}``.
        self._issued: "OrderedDict[bytes, IssuedChallenge]" = OrderedDict()
        #: Per-device view of the same table, again in issue order, so
        #: the per-device cap evicts the right entry in O(1).
        self._issued_by_device: Dict[str, "OrderedDict[bytes, None]"] = {}
        #: Reference contents the verifier expects, per device and region
        #: name: ``{device_id: [(region, bytes), ...]}``.
        self.reference_memory: Dict[str, List] = {}

    # ------------------------------------------------------------ challenge table

    def issued_count(self, device_id: Optional[str] = None) -> int:
        """Outstanding challenges, in total or for one device."""
        self._prune_expired()
        if device_id is None:
            return len(self._issued)
        return len(self._issued_by_device.get(device_id, ()))

    def _consume(self, challenge: bytes):
        entry = self._issued.pop(challenge)
        per_device = self._issued_by_device[entry.device_id]
        del per_device[challenge]
        if not per_device:
            del self._issued_by_device[entry.device_id]
        return entry

    def _prune_expired(self):
        if self.challenge_ttl is None or not self._issued:
            return
        horizon = self._clock() - self.challenge_ttl
        # _issued is in issue order, so expired entries sit at the front.
        while self._issued:
            challenge, entry = next(iter(self._issued.items()))
            if entry.issued_at > horizon:
                break
            self._consume(challenge)

    def discard_challenge(self, challenge) -> bool:
        """Consume *challenge* without a verdict; ``True`` if it existed.

        For layers above the base verifier (the PoX verifiers) that
        reject a report on their own grounds before the measurement
        check runs: their rejection is just as terminal, so the
        challenge must burn there too -- otherwise malformed-report
        probing would reopen the replay window and grow the table.
        """
        self._prune_expired()
        if challenge not in self._issued:
            return False
        self._consume(challenge)
        return True

    # ------------------------------------------------------------ enrolment

    def enroll(self, device_id, master_key=None):
        """Provision a device and return its :class:`DeviceKey`."""
        return self.key_store.provision(device_id, master_key)

    def set_reference(self, device_id, region_contents: Sequence):
        """Record the expected contents of the measured regions."""
        self.reference_memory[device_id] = [
            (region, bytes(content)) for region, content in region_contents
        ]

    # ------------------------------------------------------------ protocol

    def create_request(self, device_id):
        """Step 1: produce a fresh challenge (and its authentication token)."""
        device_key = self.key_store.get(device_id)
        self._prune_expired()
        per_device = self._issued_by_device.get(device_id)
        while per_device and len(per_device) >= self.max_issued_per_device:
            self._consume(next(iter(per_device)))
        challenge = self._rng(CHALLENGE_LENGTH)
        token = device_key.authentication_mac().tag(challenge)
        self._issued[challenge] = IssuedChallenge(
            device_id=device_id, issued_at=self._clock()
        )
        # Re-fetched rather than reused: _consume (eviction above, or
        # TTL pruning) deletes a device's OrderedDict once it empties,
        # so a stale local reference would record the new challenge
        # into an orphaned dict and desynchronise the table.
        self._issued_by_device.setdefault(device_id, OrderedDict())[challenge] = None
        return AttestationRequest(challenge=challenge, auth_token=token)

    def verify(self, report: AttestationReport, scalars=None,
               region_contents=None) -> AttestationResult:
        """Step 4: check a report against the reference state.

        ``region_contents`` overrides the enrolled reference (used by the
        PoX protocols, which add the output region whose contents the
        verifier learns from the report itself).

        The challenge is consumed on **every** terminal verdict, not
        just on success: a report rejected for a measurement mismatch
        or a device mismatch burns the challenge, so the same (or a
        corrected) report can never be replayed against it later, and
        failed exchanges never accumulate table entries.
        """
        self._prune_expired()
        if report.challenge not in self._issued:
            return AttestationResult(False, "unknown or stale challenge", report)
        entry = self._consume(report.challenge)
        if entry.device_id != report.device_id:
            return AttestationResult(False, "challenge issued to a different device", report)
        device_key = self.key_store.get(entry.device_id)
        contents = region_contents
        if contents is None:
            contents = self.reference_memory.get(entry.device_id, [])
        expected = SwAtt.expected_measurement(
            device_key, report.challenge, contents, scalars=scalars
        )
        if not constant_time_compare(expected, report.measurement):
            return AttestationResult(False, "measurement mismatch", report)
        return AttestationResult(True, "measurement matches reference", report)


@dataclass
class ProverStub:
    """Prover-side state: the device key plus the SW-Att instance."""

    device_key: DeviceKey
    swatt: SwAtt = None

    def __post_init__(self):
        if self.swatt is None:
            self.swatt = SwAtt(self.device_key)


class AttestationProtocol:
    """Drives a full RA exchange against a simulated device."""

    def __init__(self, device, verifier: Verifier, device_id,
                 config: Optional[VrasedConfig] = None,
                 monitor: Optional[VrasedMonitor] = None):
        self.device = device
        self.verifier = verifier
        self.device_id = device_id
        self.config = config or VrasedConfig.for_layout(device.layout)
        self.monitor = monitor
        self.device_key = (
            verifier.key_store.get(device_id)
            if verifier.key_store.has_device(device_id)
            else verifier.enroll(device_id)
        )
        self.prover = ProverStub(device_key=self.device_key)

    def attested_regions(self):
        """The regions plain RA measures (program memory by default)."""
        if self.config.attested_region is not None:
            return [self.config.attested_region]
        return [self.device.layout.program]

    def snapshot_reference(self):
        """Register the device's current memory as the verifier reference.

        In a real deployment the verifier knows the deployed binary; for
        the simulated device the most convenient way to obtain the same
        knowledge is to snapshot memory right after flashing.
        """
        contents = [
            (region, self.device.memory.dump_region(region))
            for region in self.attested_regions()
        ]
        self.verifier.set_reference(self.device_id, contents)
        return contents

    def run(self) -> AttestationResult:
        """Run one full challenge-response attestation exchange."""
        request = self.verifier.create_request(self.device_id)
        if not request.verify_token(self.device_key):
            # Terminal for this challenge: no report will ever answer
            # it, so it must not linger in the issued table.
            self.verifier.discard_challenge(request.challenge)
            return AttestationResult(False, "request authentication failed")
        if self.monitor is not None and self.monitor.violated:
            # A tripped monitor means the device reset before SW-Att ran;
            # the exchange simply never produces a report.
            self.verifier.discard_challenge(request.challenge)
            return AttestationResult(False, "device reset by VRASED monitor")
        report = self.prover.swatt.measure(
            self.device.memory, request.challenge, self.attested_regions()
        )
        return self.verifier.verify(report)
