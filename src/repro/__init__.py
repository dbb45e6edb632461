"""repro: a reproduction of ASAP (DAC 2022).

ASAP -- *Architecture for Secure Asynchronous Processing in PoX* --
extends the APEX proof-of-execution architecture so that executables can
service trusted interrupts without invalidating the proof.  This package
reproduces the system behaviourally in Python: an MSP430-class MCU
simulator, the VRASED remote-attestation substrate, the APEX PoX
architecture, the ASAP monitor/linker/protocol, an LTL verification
toolkit and a hardware-cost model for the paper's overhead comparison.

See ``README.md``: "Layout" for the package inventory and "Running the
experiments" for the reproduced tables and figures.

``import repro`` imports none of the subpackages.  Each name exported
here is imported from its defining module on first use
(:mod:`repro._lazy`), so a process loads only what its run needs.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Memory": "repro.memory.memory",
    "MemoryLayout": "repro.memory.layout",
    "MemoryRegion": "repro.memory.layout",
    "InterruptVectorTable": "repro.memory.ivt",
    "Assembler": "repro.isa.assembler",
    "AssembledImage": "repro.isa.assembler",
    "Device": "repro.device.mcu",
    "DeviceConfig": "repro.device.mcu",
    "TraceRecorder": "repro.device.trace",
    "Waveform": "repro.device.trace",
    "KeyStore": "repro.crypto.keys",
    "DeviceKey": "repro.crypto.keys",
    "Hmac": "repro.crypto.hmac",
    "HmacKey": "repro.crypto.hmac",
    "hmac_sha256": "repro.crypto.hmac",
    "sha256": "repro.crypto.backend",
    "set_crypto_backend": "repro.crypto.backend:set_backend",
    "use_crypto_backend": "repro.crypto.backend:use_backend",
    "VrasedConfig": "repro.vrased.config",
    "VrasedMonitor": "repro.vrased.hwmod",
    "SwAtt": "repro.vrased.swatt",
    "AttestationProtocol": "repro.vrased.protocol",
    "Verifier": "repro.vrased.protocol",
    "ExecutableRegion": "repro.apex.regions",
    "OutputRegion": "repro.apex.regions",
    "MetadataRegion": "repro.apex.regions",
    "PoxConfig": "repro.apex.regions",
    "ApexMonitor": "repro.apex.hwmod",
    "PoxProtocol": "repro.apex.pox",
    "PoxVerifier": "repro.apex.pox",
    "PoxResult": "repro.apex.pox",
    "AsapMonitor": "repro.core.hwmod",
    "IvtGuard": "repro.core.ivt_guard",
    "ErLinker": "repro.core.linker",
    "LinkedFirmware": "repro.core.linker",
    "AsapPoxProtocol": "repro.core.pox",
    "AsapPoxVerifier": "repro.core.pox",
    "parse_ltl": "repro.ltl.parser",
    "check_trace": "repro.ltl.trace_checker",
    "ModelChecker": "repro.ltl.model_checker",
    "KripkeStructure": "repro.ltl.kripke",
    "asap_property_suite": "repro.ltl.properties",
    "apex_property_suite": "repro.ltl.properties",
    "synthesize_monitor": "repro.hwcost.report",
    "compare_costs": "repro.hwcost.report",
    "figure6_comparison": "repro.hwcost.report",
    "PoxTestbench": "repro.firmware.testbench",
    "TestbenchConfig": "repro.firmware.testbench",
    "blinker_firmware": "repro.firmware.blinker",
    "syringe_pump_firmware": "repro.firmware.syringe_pump",
    "busy_wait_pump_firmware": "repro.firmware.syringe_pump",
    "sensor_logger_firmware": "repro.firmware.sensor_logger",
    "attack_suite": "repro.firmware.attacks",
    "CampaignResult": "repro.sim.runner",
    "CampaignRunner": "repro.sim.runner",
    "Scenario": "repro.sim.runner",
    "ScenarioResult": "repro.sim.runner",
    "run_scenario": "repro.sim.runner",
    "MetricsRegistry": "repro.obs.metrics",
    "Tracer": "repro.obs.trace",
    "export_telemetry": "repro.obs.export",
    "get_registry": "repro.obs.metrics",
    "get_tracer": "repro.obs.trace",
    "use_registry": "repro.obs.metrics",
    "Fleet": "repro.net.fleet",
    "FleetReport": "repro.net.fleet",
    "LinkConditions": "repro.net.transport",
    "ProverEndpoint": "repro.net.prover",
    "RetryPolicy": "repro.net.rpc",
    "VerifierService": "repro.net.service",
    "ClusterFleet": "repro.cluster.fleet",
    "ClusterReport": "repro.cluster.metrics",
    "HashRing": "repro.cluster.hashring",
    "ShardedVerifierCluster": "repro.cluster.shards",
    "WorkerRegistry": "repro.cluster.registry",
}

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
