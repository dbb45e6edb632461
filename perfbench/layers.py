"""Which program entry points the traced run wraps, and the per-layer table.

Layer names follow the program's packages: ``experiments``, ``sim``,
``ltl``, ``device``, ``core``, ``apex``, ``vrased``, ``net``, ``cpu``.
Every workload reports every per-layer metric; a layer a workload never
reaches reads 0 there.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from tracing import AROUND, CURRENT, Tracer, self_time

#: Experiment ids of ``python -m repro.experiments``, in run order.
EXPERIMENT_IDS = ("E1-E3", "E4-E5", "E6", "E7", "E8", "E9", "FLEET")

#: Span names of the benchmark's own exchange spans, by exchange kind.
EXCHANGE_SPANS = {"ra": "exchange.ra", "pox": "exchange.pox"}


def _message_device(message) -> Optional[str]:
    device_id = message.get("device_id")
    if device_id is None:
        device_id = getattr(message.get("report"), "device_id", None)
    return device_id


def instrument_pieces(tracer: Tracer, around: Optional[Callable[[], float]] = None):
    """Wrap the pieces a reproduction pass is made of, each scenario and
    each model build, with *around* (a probe) on either side of each."""
    from repro.ltl.properties import MODEL_BUILDERS
    from repro.sim import runner as sim_runner

    tracer.wrap(sim_runner, "run_scenario", "sim.scenario", around=around)
    for model in list(MODEL_BUILDERS):
        tracer.wrap(MODEL_BUILDERS, model, "ltl.build", around=around)


def instrument(tracer: Tracer, exchanges: Optional[Dict[str, object]] = None,
               around: Optional[Callable[[], float]] = None):
    """Wrap the program's layer boundaries with spans recorded by *tracer*.

    *exchanges* maps a device id to the benchmark's open exchange span of
    that device; a service-side ``handle`` call becomes that span's child.
    *around* goes to :func:`instrument_pieces`.
    """
    from repro.apex.pox import PoxProtocol
    from repro.core.hwmod import AsapMonitor
    from repro.core.pox import AsapPoxVerifier
    from repro.experiments import runners
    from repro.ltl.kripke import KripkeStructure
    from repro.ltl.model_checker import ModelChecker
    from repro.net.prover import ProverEndpoint
    from repro.net.rpc import RpcChannel
    from repro.net.service import VerifierService
    from repro.net.transport import LoopbackTransport
    from repro.vrased.protocol import AttestationRequest, Verifier
    from repro.vrased.swatt import SwAtt

    for experiment_id in list(runners.EXPERIMENT_RUNNERS):
        tracer.wrap(runners.EXPERIMENT_RUNNERS, experiment_id,
                    "experiments." + experiment_id)
    instrument_pieces(tracer, around)
    tracer.wrap(KripkeStructure, "reachable_states", "ltl.reachable")

    def record_check(span, _args, _kwargs, result):
        span.attrs["states"] = result.states_explored
        span.attrs["transitions"] = result.transitions_checked

    tracer.wrap(ModelChecker, "check", "ltl.check", record=record_check)

    tracer.wrap(PoxProtocol, "install_challenge", "apex.install")
    tracer.wrap(PoxProtocol, "call_executable", "device.run")
    tracer.accumulate(AsapMonitor, "observe", "core.observe")
    tracer.wrap(PoxProtocol, "attest", "apex.attest")

    def record_measure(span, args, kwargs, _result):
        regions = args[3] if len(args) > 3 else kwargs["regions"]
        span.attrs["bytes"] = sum(region.size for region in regions)

    tracer.wrap(SwAtt, "measure", "vrased.measure", record=record_measure)
    tracer.wrap(Verifier, "create_request", "vrased.challenge")
    tracer.wrap(AttestationRequest, "verify_token", "vrased.verify_token")
    tracer.wrap(AsapPoxVerifier, "verify", "apex.verify")
    # The PoX verifier checks its MAC through Verifier.verify; that call
    # belongs to the PoX verdict, so only plain-RA verifies get a span.
    tracer.wrap(Verifier, "verify", "vrased.verify",
                skip=lambda current: current is not None
                and current.name == "apex.verify")

    def handle_parent(args, _kwargs):
        if exchanges:
            span = exchanges.get(_message_device(args[1]))
            if span is not None:
                return span
        return CURRENT

    tracer.wrap(VerifierService, "handle", "net.handle", parent=handle_parent)
    # Coroutines: a span per step, so each holds the time the layer runs.
    tracer.wrap(ProverEndpoint, "run_attestation", "net.endpoint")
    tracer.wrap(ProverEndpoint, "run_pox", "net.endpoint")
    tracer.wrap(RpcChannel, "call", "net.rpc")
    tracer.wrap(LoopbackTransport, "send", "net.send")
    tracer.wrap(LoopbackTransport, "recv", "net.recv")


def layer_metrics(tracer: Tracer, root) -> Dict[str, float]:
    """Per-layer metrics from the spans recorded under *root*.

    Times are self times except ``experiments.*_s``, which are whole
    experiment durations.  ``net.wait_s`` is the self time of the
    benchmark's exchange spans: exchange time that neither the
    exchange's own prover-side calls nor its service-side ``handle``
    calls cover.  Exchanges overlap, so it is waiting summed over
    exchanges, not a share of the wall time.  ``net.endpoint_s``,
    ``net.rpc_s``, ``net.send_s`` and ``net.recv_s`` are the steps the
    prover endpoint, its RPC channel and the loopback transport run.
    ``bench.harness_s`` is the benchmark's own time: the root span's
    self time plus the probes.  ``bench.attributed_share`` is the share
    of the traced wall time that the measured self times (every span but
    the exchanges, every accumulator) add up to; ``bench.unattributed_s``
    is the rest: the event loop, the service's per-connection loop and
    reply tasks outside ``handle`` and ``send``.
    """
    table = tracer.by_name()

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    measure_ra = sum(
        self_time(span) for span in tracer.spans
        if span.name == "vrased.measure" and span.parent is not None
        and span.parent.name == EXCHANGE_SPANS["ra"])
    wall = root.duration
    metrics = {
        "experiments.%s_s" % experiment_id:
            table.get("experiments." + experiment_id, {}).get("total_s", 0.0)
        for experiment_id in EXPERIMENT_IDS
    }
    metrics.update({
        "sim.scenario_s": self_s("sim.scenario"),
        "sim.scenarios": calls("sim.scenario"),
        "ltl.build_s": self_s("ltl.build"),
        "ltl.build_calls": calls("ltl.build"),
        "ltl.reachable_s": self_s("ltl.reachable"),
        "ltl.reachable_calls": calls("ltl.reachable"),
        "ltl.check_s": self_s("ltl.check"),
        "ltl.check_calls": calls("ltl.check"),
        "ltl.states_explored": tracer.attr_sum("ltl.check", "states"),
        "ltl.transitions_checked": tracer.attr_sum("ltl.check", "transitions"),
        "device.run_s": self_s("device.run"),
        "device.run_calls": calls("device.run"),
        "core.observe_s": self_s("core.observe"),
        "core.observe_calls": calls("core.observe"),
        "vrased.challenge_s": self_s("vrased.challenge"),
        "vrased.verify_token_s": self_s("vrased.verify_token"),
        "vrased.measure_pox_s": self_s("vrased.measure") - measure_ra,
        "vrased.measure_ra_s": measure_ra,
        "vrased.measured_bytes": tracer.attr_sum("vrased.measure", "bytes"),
        "apex.install_s": self_s("apex.install"),
        "apex.attest_s": self_s("apex.attest"),
        "apex.verify_s": self_s("apex.verify"),
        "vrased.verify_ra_s": self_s("vrased.verify"),
        "net.handle_s": self_s("net.handle"),
        "net.handle_calls": calls("net.handle"),
        "net.endpoint_s": self_s("net.endpoint"),
        "net.rpc_s": self_s("net.rpc"),
        "net.send_s": self_s("net.send"),
        "net.send_calls": calls("net.send"),
        "net.recv_s": self_s("net.recv"),
        "net.wait_s": sum(self_s(name) for name in EXCHANGE_SPANS.values()),
        "bench.harness_s": self_s(root.name) + self_s(AROUND),
        "bench.traced_wall_s": wall,
    })
    # Single-threaded: apart from the exchanges, spans never overlap, so
    # their self times add up to the wall time they cover.
    measured = sum(entry["self_s"] for name, entry in table.items()
                   if name not in EXCHANGE_SPANS.values())
    metrics["bench.unattributed_s"] = max(0.0, wall - measured)
    metrics["bench.attributed_share"] = measured / wall if wall > 0 else 0.0
    return metrics
