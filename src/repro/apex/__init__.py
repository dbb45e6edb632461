"""APEX: proofs of execution for low-end MCUs (the architecture ASAP extends).

APEX adds to VRASED a hardware-controlled 1-bit ``EXEC`` flag that no
software can write.  ``EXEC = 1`` in an attestation report proves to the
verifier that the executable region (ER) ran from its first to its last
instruction, atomically and unmodified, and that the output region (OR)
was not tampered with between execution and attestation
(paper Section 2.3).

This package provides:

* :class:`PoxConfig` / :class:`ExecutableRegion` -- the ER/OR/metadata
  geometry,
* :class:`ApexMonitor` -- the EXEC-flag state machine enforcing the
  paper's LTL 1-3 plus the memory-protection rules,
* :class:`PoxProtocol` -- the verifier/prover exchange that turns an
  EXEC-bearing attestation report into a proof of execution.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ExecutableRegion": "repro.apex.regions",
    "OutputRegion": "repro.apex.regions",
    "MetadataRegion": "repro.apex.regions",
    "PoxConfig": "repro.apex.regions",
    "ApexMonitor": "repro.apex.hwmod",
    "ExecViolation": "repro.apex.hwmod",
    "PoxProtocol": "repro.apex.pox",
    "PoxResult": "repro.apex.pox",
    "PoxVerifier": "repro.apex.pox",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
