"""What each entry point imports, and the public namespace of every package.

Every package ``__init__`` is lazy (``repro._lazy``): importing a package
imports none of its modules, and an exported name is imported from its
defining module on first use.  These tests run each case in a fresh
interpreter, because an import made by an earlier test would hide one
that a case makes or skips.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
PACKAGE_DIR = SRC / "repro"

SUBPACKAGES = tuple(sorted(path.parent.name for path in PACKAGE_DIR.glob("*/__init__.py")))
PACKAGES = ("repro",) + tuple("repro." + name for name in SUBPACKAGES)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: Every module of the tree except the package ``__init__``s.
SUBMODULES = tuple(sorted(_module_name(path) for path in PACKAGE_DIR.rglob("*.py")
                          if path.name != "__init__.py"))


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run *code* in a fresh interpreter that imports ``repro`` from this tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def assert_runs(code: str):
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr[-3000:]


# --------------------------------------------------------------------------
# Import footprints
# --------------------------------------------------------------------------

_CLI = """
import contextlib, io
import repro.experiments.__main__ as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main([%r]) == 0
"""

_PROVER = """
from repro import PoxTestbench, TestbenchConfig, sensor_logger_firmware
bench = PoxTestbench(sensor_logger_firmware(), TestbenchConfig(architecture="asap"))
assert bench.device.run_until_pc(bench.firmware.symbol("idle"), max_steps=64)
"""

#: A verifier decoding a prover's report frame.
_REPORT_FRAME = """
from repro.net.transport import decode_payload, encode_frame
from repro.vrased.swatt import AttestationReport
report = AttestationReport(device_id="d", challenge=bytes(32), measurement=bytes(32))
assert decode_payload(encode_frame({"report": report})[4:]) == {"report": report}
"""

#: What the E6 model checks leave unloaded.
_E6_ABSENT = ("repro.device", "repro.firmware", "repro.hwcost", "repro.net", "repro.cluster",
              "asyncio", "multiprocessing")

#: Entry point -> (code run in a fresh interpreter, modules it must leave
#: out of ``sys.modules``).
FOOTPRINTS = {
    "import-repro": (
        "import repro",
        tuple("repro." + name for name in SUBPACKAGES) + ("multiprocessing", "socket", "pickle")),
    # The fleet service is an explicit opt-in: `import repro` must not pay
    # for it, while its re-export still resolves.
    "import-repro-without-net-stack": ("import repro", ("repro.net", "asyncio")),
    "from-repro-import-Fleet": (
        "from repro import Fleet\nassert Fleet.__name__ == 'Fleet'", ("repro.cluster",)),
    "cli-module": (
        "import repro.experiments.__main__",
        ("multiprocessing", "asyncio", "socket", "ssl", "repro.device", "repro.firmware",
         "repro.ltl", "repro.hwcost", "repro.net", "repro.cluster")),
    "cli-E6": (_CLI % "E6", _E6_ABSENT),
    # E4-E5 is the hardware-cost comparison: it runs repro.hwcost, and
    # leaves the model checker out as well.
    "cli-E4-E5": (_CLI % "E4-E5",
                  tuple(name for name in _E6_ABSENT if name != "repro.hwcost") + ("repro.ltl",)),
    # The frame allowlist names protocol types only: decoding a frame
    # builds no campaign or firmware machinery.
    "report-frame-decode": (
        _REPORT_FRAME,
        ("repro.sim", "repro.firmware", "repro.experiments", "repro.ltl",
         "repro.cluster", "multiprocessing")),
    "sensor-logger-prover": (
        _PROVER,
        ("repro.ltl", "repro.sim", "repro.hwcost", "repro.experiments", "repro.net",
         "repro.cluster", "multiprocessing")),
}


@pytest.mark.parametrize("entry_point", list(FOOTPRINTS))
def test_entry_point_leaves_modules_unloaded(entry_point):
    code, absent = FOOTPRINTS[entry_point]
    assert_runs(code + """
import sys
loaded = sorted(set(%r) & set(sys.modules))
if loaded:
    sys.exit("loaded: " + ", ".join(loaded))
""" % (absent,))


# --------------------------------------------------------------------------
# The public namespace
# --------------------------------------------------------------------------

#: Every package's ``__all__``, as a set.
PUBLIC_NAMES = {
    "repro": """
        ApexMonitor AsapMonitor AsapPoxProtocol AsapPoxVerifier AssembledImage Assembler
        AttestationProtocol CampaignResult CampaignRunner ClusterFleet ClusterReport
        Device DeviceConfig DeviceKey ErLinker ExecutableRegion
        Fleet FleetReport HashRing Hmac HmacKey InterruptVectorTable IvtGuard KeyStore
        KripkeStructure LinkConditions LinkedFirmware Memory MemoryLayout MemoryRegion
        MetadataRegion MetricsRegistry ModelChecker OutputRegion PoxConfig
        PoxProtocol PoxResult PoxTestbench PoxVerifier ProverEndpoint
        RetryPolicy Scenario ScenarioResult ShardedVerifierCluster SwAtt
        TestbenchConfig TraceRecorder Tracer Verifier VerifierService VrasedConfig
        VrasedMonitor Waveform WorkerRegistry __version__ apex_property_suite
        asap_property_suite attack_suite blinker_firmware busy_wait_pump_firmware
        check_trace compare_costs export_telemetry figure6_comparison get_registry
        get_tracer hmac_sha256 parse_ltl run_scenario sensor_logger_firmware
        set_crypto_backend sha256 synthesize_monitor
        syringe_pump_firmware use_crypto_backend use_registry""",
    "repro.apex": """
        ApexMonitor ExecViolation ExecutableRegion MetadataRegion OutputRegion PoxConfig
        PoxProtocol PoxResult PoxVerifier""",
    "repro.cluster": """
        BackpressureGate ClusterFleet ClusterReport HashRing RetryPolicy RpcChannel
        RpcTimeout ShardStats ShardedVerifierCluster VerifierShard WorkerRecord
        WorkerRegistry""",
    "repro.core": """
        AsapMonitor AsapPoxProtocol AsapPoxVerifier ErLinker IVT_SNAPSHOT IsrDescriptor
        IvtGuard IvtGuardState LinkError LinkedFirmware""",
    "repro.cpu": """
        CPU CPUError DecodeCache InterpreterEngine MemoryRead MemoryWrite SignalBundle
        engine_name""",
    "repro.crypto": """
        CRYPTO_BACKENDS DeviceKey HashlibSha256 Hmac HmacKey KeyStore Sha256
        backend_name constant_time_compare derive_key hasher_class hmac_sha256
        new_sha256 register_backend set_backend sha256 use_backend verify_hmac""",
    "repro.device": """
        DecodeCache Device DeviceConfig ScheduledEvent TraceEntry TraceRecorder
        VcdWriter Waveform export_vcd""",
    "repro.experiments": """
        EXPERIMENT_RUNNERS ExperimentResult busywait_scenarios fig5_scenarios
        fig6_scenarios load_json run_all_experiments run_busywait_ablation
        run_fig5_waveforms run_fig6_overhead run_runtime_overhead run_security_scenarios
        run_verification_cost runtime_scenarios security_scenarios
        verification_scenarios write_json""",
    "repro.firmware": """
        AttackScenario PUMP_OUTPUT_LAYOUT PoxTestbench PumpParameters SensorParameters
        TestbenchConfig attack_suite blinker_firmware busy_wait_pump_firmware
        sensor_logger_firmware syringe_pump_firmware""",
    "repro.hwcost": """
        ComparisonReport Component CostReport Module apex_hwmod apex_overhead_module
        asap_hwmod asap_overhead_module compare_costs equality_comparator
        figure6_comparison fsm_state logic_function magnitude_comparator range_checker
        register synthesize_monitor vrased_hwmod""",
    "repro.isa": """
        AddressingMode AssembledImage Assembler AssemblyError CG DecodeError Instruction
        InstructionFormat Opcode Operand PC REGISTER_NAMES SP SR Section StatusFlag
        decode_instruction disassemble_range disassemble_word encode_instruction
        register_name register_number""",
    "repro.ltl": """
        And Atom CheckResult FalseFormula Finally Globally Implies KripkeStructure
        LtlParseError ModelChecker Next Not Or PropertySpec TrueFormula Until
        apex_property_suite asap_property_suite build_apex_model build_asap_model
        build_vrased_model check_trace evaluate_at find_violation parse_ltl
        vrased_property_suite""",
    "repro.memory": """
        IVT_BASE IVT_END IVT_ENTRIES InterruptVectorTable Memory MemoryAccess
        MemoryError MemoryLayout MemoryRegion""",
    "repro.net": """
        ClosedTransportError DeviceEnrollment ExchangeResult Fleet FleetReport
        LinkConditions LoopbackTransport MessageTransport ProverEndpoint RetryPolicy
        RpcChannel RpcTimeout StreamTransport VerifierService allow_frame_type
        build_prover_bench loopback_pair open_tcp_listener open_tcp_transport
        provision_enrollment""",
    "repro.obs": """
        Counter DEFAULT_BUCKETS DEFAULT_WINDOW Gauge Histogram InMemorySink JsonlSink
        MetricsRegistry Span TELEMETRY_FILENAME Tracer export_telemetry get_registry
        get_tracer
        register_global_collector render_tree set_registry set_tracer span_tree
        unregister_global_collector use_registry""",
    "repro.peripherals": """
        DmaController GpioPort InterruptController InterruptSource Peripheral
        PeripheralRegisters TimerA Uart Watchdog""",
    "repro.sim": """
        CampaignResult CampaignRunner Scenario ScenarioResult run_scenario""",
    "repro.vrased": """
        AttestationProtocol AttestationReport AttestationRequest AttestationResult
        ProverStub SwAtt Verifier Violation VrasedConfig VrasedMonitor""",
}


def test_every_package_has_pinned_names():
    assert sorted(PUBLIC_NAMES) == sorted(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_keeps_every_public_name(package):
    names = importlib.import_module(package).__all__
    assert len(names) == len(set(names))
    assert set(names) == set(PUBLIC_NAMES[package].split())


def test_exports_are_their_defining_modules_objects_after_every_submodule_loads():
    # Importing a submodule binds it over a package attribute of the same
    # name (crypto/sha256.py vs the function repro.crypto.sha256), so the
    # submodules load first.
    assert_runs("""
    import importlib
    from repro._lazy import resolve
    for name in %r:
        importlib.import_module(name)
    wrong = []
    for package_name in %r:
        package = importlib.import_module(package_name)
        for name, target in package._EXPORTS.items():
            if ":" not in target:
                target = "%%s:%%s" %% (target, name)
            if getattr(package, name) is not resolve(target):
                wrong.append("%%s.%%s" %% (package_name, name))
    assert not wrong, wrong
    """ % (SUBMODULES, PACKAGES))


def test_sha256_is_the_backend_function_whichever_module_loads_first():
    assert_runs("""
    import sys
    import repro.crypto.sha256
    import repro.crypto.backend
    from repro.crypto import sha256
    assert sha256 is repro.crypto.backend.sha256 is repro.sha256
    assert sha256(b"abc") == sys.modules["repro.crypto.sha256"].sha256(b"abc")
    """)


def test_star_import_binds_every_public_name():
    assert_runs("""
    import importlib
    missing = []
    for package_name in %r:
        namespace = {}
        exec("from %%s import *" %% package_name, namespace)
        package = importlib.import_module(package_name)
        missing += ["%%s.%%s" %% (package_name, name) for name in package.__all__
                    if name not in namespace]
    assert not missing, missing
    """ % (PACKAGES,))


def test_dir_lists_every_public_name_before_any_is_used():
    assert_runs("""
    import importlib
    for package_name in %r:
        package = importlib.import_module(package_name)
        missing = set(package.__all__) - set(dir(package))
        assert not missing, (package_name, sorted(missing))
    """ % (PACKAGES,))


def test_unknown_names_raise_attribute_error_naming_the_package():
    assert_runs("""
    import importlib
    for package_name in %r:
        package = importlib.import_module(package_name)
        try:
            package.no_such_name
        except AttributeError as error:
            assert repr(package_name) in str(error), error
        else:
            raise AssertionError("%%s.no_such_name resolved" %% package_name)
    """ % (PACKAGES,))


def test_every_submodule_resolves_as_an_attribute_after_a_bare_import():
    assert_runs("""
    import sys
    import repro
    unresolved = []
    for name in %r:
        value = repro
        try:
            for part in name.split(".")[1:]:
                value = getattr(value, part)
        except AttributeError as error:
            unresolved.append("%%s: %%s" %% (name, error))
            continue
        parent, _, attribute = name.rpartition(".")
        if attribute not in getattr(sys.modules[parent], "_EXPORTS", {}):
            assert value is sys.modules[name], name
    assert not unresolved, unresolved
    """ % (SUBMODULES,))
