"""VRASED: the verified hybrid remote-attestation substrate.

APEX (and therefore ASAP) is built on top of VRASED, a hardware/software
co-design in which a small software routine (SW-Att) computes an HMAC
over the attested memory and a hardware monitor guarantees that

* the attestation key is only readable while the program counter is
  inside SW-Att,
* SW-Att executes atomically (entered only at its first instruction,
  left only from its last, never interrupted),
* DMA cannot touch the key or interfere with SW-Att execution.

This package models those guarantees behaviourally:
:class:`VrasedMonitor` watches the per-step signal bundles for
violations, :class:`SwAtt` computes the measurement, and
:mod:`repro.vrased.protocol` implements the verifier/prover
challenge-response exchange of the paper's Fig. 1.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "VrasedConfig": "repro.vrased.config",
    "VrasedMonitor": "repro.vrased.hwmod",
    "Violation": "repro.vrased.hwmod",
    "SwAtt": "repro.vrased.swatt",
    "AttestationReport": "repro.vrased.swatt",
    "AttestationProtocol": "repro.vrased.protocol",
    "AttestationRequest": "repro.vrased.protocol",
    "AttestationResult": "repro.vrased.protocol",
    "Verifier": "repro.vrased.protocol",
    "ProverStub": "repro.vrased.protocol",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
