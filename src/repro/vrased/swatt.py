"""SW-Att: the attestation measurement routine.

On the real device SW-Att is a formally verified assembly routine in ROM
that computes ``HMAC(K_att, Chal || attested memory)``.  The behavioural
model computes the same measurement functionally over the simulated
memory.  To keep the monitor-visible behaviour representative, the
protocol layer can additionally execute a small SW-Att *stub* inside the
reserved SW-Att region so that the program counter genuinely enters and
leaves the region (exercising the VRASED atomicity rules).

The measured byte string is::

    challenge || descriptor(region_1) || bytes(region_1) || ... || extra

where each descriptor encodes the region's start and end addresses, so
a report over one memory range can never be replayed as a report over a
different one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.crypto.keys import DeviceKey
from repro.memory.layout import MemoryRegion


@dataclass(frozen=True)
class AttestationReport:
    """A prover-produced attestation/PoX report."""

    device_id: str
    challenge: bytes
    measurement: bytes
    #: Values of authenticated scalar items included in the measurement
    #: (e.g. the EXEC flag); kept in the clear so the verifier can audit
    #: what the device claims, while integrity comes from the HMAC.
    claims: Dict[str, int] = field(default_factory=dict)
    #: Copies of authenticated memory snippets included in the report
    #: (e.g. the output region and the IVT) for verifier-side inspection.
    snapshots: Dict[str, bytes] = field(default_factory=dict)

    def claim(self, name, default=None):
        """Return a named claim value."""
        return self.claims.get(name, default)


def encode_region_descriptor(region: MemoryRegion):
    """Return the authenticated descriptor for a measured region."""
    return struct.pack(">HH", region.start & 0xFFFF, region.end & 0xFFFF)


def encode_scalar(name, value):
    """Return the authenticated encoding of a scalar claim."""
    encoded_name = name.encode("utf-8")
    return struct.pack(
        ">B%dsI" % len(encoded_name),
        len(encoded_name), encoded_name, value & 0xFFFFFFFF,
    )


def _region_bytes(memory, region):
    """Bulk-read *region* from *memory*: a zero-copy view when the
    memory supports it, a plain copy otherwise."""
    view_region = getattr(memory, "view_region", None)
    if view_region is not None:
        return view_region(region)
    return memory.dump_region(region)


class SwAtt:
    """Computes attestation measurements over a device's memory."""

    def __init__(self, device_key: DeviceKey, device_id: Optional[str] = None):
        self.device_key = device_key
        self.device_id = device_id or device_key.device_id

    def measure(self, memory, challenge, regions: Sequence[MemoryRegion],
                scalars: Optional[Dict[str, int]] = None,
                snapshot_regions: Optional[Dict[str, MemoryRegion]] = None):
        """Compute a report over *regions* of *memory*.

        ``scalars`` are named integer claims folded into the MAC (APEX
        adds the EXEC flag this way); ``snapshot_regions`` name regions
        whose raw bytes should also travel in the clear inside the
        report (APEX's output region, ASAP's IVT).

        The attested bytes are **streamed** into the MAC: each region is
        fed as a zero-copy view over the simulated memory, so measuring
        never materialises the concatenated message (the old
        ``message += ...`` accumulation was quadratic in region count
        and copied every attested byte at least twice).
        """
        mac = self.device_key.attestation_mac().mac(bytes(challenge))
        for region in regions:
            mac.update(encode_region_descriptor(region))
            mac.update(_region_bytes(memory, region))
        claims = dict(scalars or {})
        for name in sorted(claims):
            mac.update(encode_scalar(name, claims[name]))
        measurement = mac.digest()

        snapshots = {}
        for name, region in (snapshot_regions or {}).items():
            # Same bulk-read path as the measurement; bytes() pins the
            # one copy that must travel inside the report.
            snapshots[name] = bytes(_region_bytes(memory, region))
        return AttestationReport(
            device_id=self.device_id,
            challenge=bytes(challenge),
            measurement=measurement,
            claims=claims,
            snapshots=snapshots,
        )

    @staticmethod
    def expected_measurement(device_key: DeviceKey, challenge,
                             region_contents: Sequence, scalars=None):
        """Verifier-side recomputation of the expected measurement.

        ``region_contents`` is a sequence of ``(region, bytes)`` pairs
        giving the contents the verifier expects each measured region to
        hold.
        """
        mac = device_key.attestation_mac().mac(bytes(challenge))
        for region, content in region_contents:
            mac.update(encode_region_descriptor(region))
            expected = bytes(content)
            if len(expected) != region.size:
                raise ValueError(
                    "expected contents for %s must be %d bytes, got %d"
                    % (region, region.size, len(expected))
                )
            mac.update(expected)
        claims = dict(scalars or {})
        for name in sorted(claims):
            mac.update(encode_scalar(name, claims[name]))
        return mac.digest()
