"""repro: a reproduction of ASAP (DAC 2022).

ASAP -- *Architecture for Secure Asynchronous Processing in PoX* --
extends the APEX proof-of-execution architecture so that executables can
service trusted interrupts without invalidating the proof.  This package
reproduces the system behaviourally in Python: an MSP430-class MCU
simulator, the VRASED remote-attestation substrate, the APEX PoX
architecture, the ASAP monitor/linker/protocol, an LTL verification
toolkit and a hardware-cost model for the paper's overhead comparison.

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the reproduced tables and figures.
"""

from repro.memory import Memory, MemoryLayout, MemoryRegion, InterruptVectorTable
from repro.isa import Assembler, AssembledImage
from repro.device import Device, DeviceConfig, TraceRecorder, Waveform
from repro.crypto import (
    KeyStore,
    DeviceKey,
    Hmac,
    HmacKey,
    hmac_sha256,
    sha256,
    set_backend as set_crypto_backend,
    use_backend as use_crypto_backend,
)
from repro.vrased import (
    VrasedConfig,
    VrasedMonitor,
    SwAtt,
    AttestationProtocol,
    Verifier,
)
from repro.apex import (
    ExecutableRegion,
    OutputRegion,
    MetadataRegion,
    PoxConfig,
    ApexMonitor,
    PoxProtocol,
    PoxVerifier,
    PoxResult,
)
from repro.core import (
    AsapMonitor,
    IvtGuard,
    ErLinker,
    LinkedFirmware,
    AsapPoxProtocol,
    AsapPoxVerifier,
)
from repro.ltl import (
    parse_ltl,
    check_trace,
    ModelChecker,
    KripkeStructure,
    asap_property_suite,
    apex_property_suite,
)
from repro.hwcost import (
    synthesize_monitor,
    compare_costs,
    figure6_comparison,
)
from repro.firmware import (
    PoxTestbench,
    TestbenchConfig,
    blinker_firmware,
    syringe_pump_firmware,
    busy_wait_pump_firmware,
    sensor_logger_firmware,
    attack_suite,
)
from repro.sim import (
    CampaignResult,
    CampaignRunner,
    EventSpec,
    FirmwareRef,
    Observe,
    ResultStore,
    ScenarioResult,
    ScenarioSpec,
    StopSpec,
    run_scenario,
    shutdown_warm_pools,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    export_telemetry,
    get_registry,
    get_tracer,
    use_registry,
)
# The fleet service layer (repro.net) is re-exported lazily via
# __getattr__ below: eagerly importing it here would drag asyncio and
# the whole service stack into every `import repro` -- including the
# campaign engine's spawn-context pool workers -- and defeat the
# deliberate lazy import in repro.sim.runner.
_NET_EXPORTS = frozenset({
    "Fleet",
    "FleetReport",
    "LinkConditions",
    "ProverEndpoint",
    "RetryPolicy",
    "VerifierService",
})

# The cluster control plane (repro.cluster) is likewise lazy, for the
# same reason -- and it imports repro.net itself.
_CLUSTER_EXPORTS = frozenset({
    "ClusterFleet",
    "ClusterReport",
    "HashRing",
    "ShardedVerifierCluster",
    "WorkerRegistry",
})


def __getattr__(name):
    if name in _NET_EXPORTS:
        from repro import net

        return getattr(net, name)
    if name in _CLUSTER_EXPORTS:
        from repro import cluster

        return getattr(cluster, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__version__ = "1.0.0"

__all__ = [
    "Memory",
    "MemoryLayout",
    "MemoryRegion",
    "InterruptVectorTable",
    "Assembler",
    "AssembledImage",
    "Device",
    "DeviceConfig",
    "TraceRecorder",
    "Waveform",
    "KeyStore",
    "DeviceKey",
    "Hmac",
    "HmacKey",
    "hmac_sha256",
    "sha256",
    "set_crypto_backend",
    "use_crypto_backend",
    "VrasedConfig",
    "VrasedMonitor",
    "SwAtt",
    "AttestationProtocol",
    "Verifier",
    "ExecutableRegion",
    "OutputRegion",
    "MetadataRegion",
    "PoxConfig",
    "ApexMonitor",
    "PoxProtocol",
    "PoxVerifier",
    "PoxResult",
    "AsapMonitor",
    "IvtGuard",
    "ErLinker",
    "LinkedFirmware",
    "AsapPoxProtocol",
    "AsapPoxVerifier",
    "parse_ltl",
    "check_trace",
    "ModelChecker",
    "KripkeStructure",
    "asap_property_suite",
    "apex_property_suite",
    "synthesize_monitor",
    "compare_costs",
    "figure6_comparison",
    "PoxTestbench",
    "TestbenchConfig",
    "blinker_firmware",
    "syringe_pump_firmware",
    "busy_wait_pump_firmware",
    "sensor_logger_firmware",
    "attack_suite",
    "CampaignResult",
    "CampaignRunner",
    "EventSpec",
    "FirmwareRef",
    "Observe",
    "ResultStore",
    "ScenarioResult",
    "ScenarioSpec",
    "StopSpec",
    "run_scenario",
    "shutdown_warm_pools",
    "MetricsRegistry",
    "Tracer",
    "export_telemetry",
    "get_registry",
    "get_tracer",
    "use_registry",
    "Fleet",
    "FleetReport",
    "LinkConditions",
    "ProverEndpoint",
    "RetryPolicy",
    "VerifierService",
    "ClusterFleet",
    "ClusterReport",
    "HashRing",
    "ShardedVerifierCluster",
    "WorkerRegistry",
    "__version__",
]
