#!/usr/bin/env python3
"""Quickstart: one proof of execution with an authorized interrupt.

This example reproduces the paper's running example (Fig. 4 / Fig. 5a)
end to end using the public API:

1. write a small firmware whose trusted ISR is linked inside the
   executable region (ER),
2. build a simulated MCU with the ASAP monitor attached,
3. run the verifier/prover proof-of-execution exchange while a button
   press fires the trusted interrupt mid-execution,
4. inspect the result: the interrupt was serviced, the output is bound
   to the proof, and the proof verifies.

Run with::

    python examples/quickstart.py
"""

import functools

from repro import (
    CampaignRunner,
    PoxTestbench,
    Scenario,
    TestbenchConfig,
    blinker_firmware,
)


def blinker_exchange(architecture, authorized):
    """One blinker PoX exchange with a button press at step 6."""
    bench = PoxTestbench(blinker_firmware(authorized=authorized),
                         TestbenchConfig(architecture=architecture))
    result = bench.run_pox(setup=lambda device: device.schedule_button_press(6))
    return {"accepted": result.accepted, "exec_flag": bench.exec_flag}


def campaign_demo():
    """A small scenario campaign: the same exchange, swept over
    architecture x ISR authorization.

    Each ``Scenario`` is a name plus a body that runs its workload
    directly and returns the observations; ``CampaignRunner`` runs the
    list in-process and returns the results in list order.
    """
    scenarios = [
        Scenario("blinker-%s-%s" % (architecture, "auth" if authorized else "unauth"),
                 functools.partial(blinker_exchange, architecture, authorized))
        for architecture in ("asap", "apex")
        for authorized in (True, False)
    ]
    outcome = CampaignRunner().run(scenarios)
    print("\n--- campaign sweep (architecture x ISR authorization) ---")
    for result in outcome:
        print("%-24s %s" % (result.name, result.row))


def cluster_demo():
    """A fleet split between two verifier services.

    Eight devices, two services that share no state: device *i* is
    provisioned into service ``i % 2`` and connects to that same
    service, so each service holds four devices' keys and issues
    challenges only for them.  Every exchange is accepted and both
    challenge tables drain.
    """
    from repro.net import Fleet

    print("\n--- sharded fleet (2 services, 8 devices) ---")
    fleet = Fleet(8, shards=2, architecture="asap")
    report = fleet.run(exchanges_per_device=4, mix=("ra",))
    print("exchanges: %d  accepted: %d  rejected: %d"
          % (report.exchanges, report.accepted, report.rejected))
    for number, service in enumerate(fleet.services):
        print("  service-%d devices=%d challenges=%d accepted=%d pending=%d"
              % (number, len(service.verifier.key_store.device_ids()),
                 service.counters["challenges"], service.counters["accepted"],
                 service.pending_challenges))
    if not report.all_accepted() or report.pending_challenges_after:
        raise SystemExit("unexpected: every exchange should be accepted")


def telemetry_demo():
    """The telemetry spine: one registry, one tracer, every layer.

    ``repro.obs`` gives the whole stack a shared metrics registry
    (counters/gauges/histograms under dotted names) and a tracer whose
    spans nest into one tree.  The campaign below publishes
    ``campaign.*`` counters and spans as it runs; the engine/decode-cache/service families arrive at
    *snapshot* time through collectors, so the simulation hot path
    pays nothing until someone asks.  The CLI equivalent is
    ``python -m repro.experiments E9 --telemetry DIR``.
    """
    import json
    import tempfile

    from repro.obs import (
        MetricsRegistry,
        Tracer,
        export_telemetry,
        render_tree,
        set_tracer,
        use_registry,
    )

    print("\n--- telemetry (repro.obs) ---")
    scenarios = [
        Scenario("telemetry-blinker-%s" % architecture,
                 functools.partial(blinker_exchange, architecture, True))
        for architecture in ("asap", "apex")
    ]
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        with use_registry(MetricsRegistry()) as registry:
            CampaignRunner().run(scenarios)
            snapshot = registry.snapshot()
    finally:
        set_tracer(previous)
    print("campaign.scenarios =", snapshot["counters"]["campaign.scenarios"])
    print("scenario p99       = %.3fms" % (
        snapshot["histograms"]["campaign.scenario_seconds"]["p99"] * 1e3))
    print("engine gauges      =", sorted(
        name for name in snapshot["gauges"] if name.startswith("engine."))[:3])
    print("span tree:")
    print(render_tree(tracer.finished_spans()))
    with tempfile.TemporaryDirectory() as directory:
        path = export_telemetry(directory, registry=MetricsRegistry(),
                                tracer=tracer)
        records = [json.loads(line) for line in open(path, encoding="utf-8")]
        print("exported %d JSONL records (%d spans) to telemetry.jsonl"
              % (len(records),
                 sum(1 for record in records if record["record"] == "span")))


def main():
    # The attestation HMAC runs on a pluggable SHA-256 backend: "fast"
    # (hashlib, the default) or "pure" (the in-tree reference, ~1900x
    # slower on full-memory measurements, byte-identical output).
    # Select per process, per scope, or via REPRO_CRYPTO_BACKEND=pure:
    #
    #   from repro import set_crypto_backend, use_crypto_backend
    #   set_crypto_backend("pure")      # process-wide; None reverts
    #   with use_crypto_backend("pure"):
    #       ...                         # scoped (tests, benchmarks)
    from repro.crypto import backend_name
    print("crypto backend:", backend_name())

    # The Fig. 4 firmware: a dummy loop inside ER plus a trusted GPIO ISR.
    #
    # Performance knobs (both forwarded to DeviceConfig):
    #   decode_cache_enabled=True   -- memoise decoded instructions per PC;
    #       ~3x steps/sec, write-invalidated so self-modifying code (and
    #       the attack gallery) still executes fresh bytes.  On by default.
    #   trace_enabled=True          -- per-step trace recording; turn off
    #       for raw simulation speed (waveforms then stay empty).
    firmware = blinker_firmware(authorized=True)
    bench = PoxTestbench(firmware, TestbenchConfig(architecture="asap"))

    print("Executable region:", bench.executable.region)
    print("ER_min = 0x%04X  ER_max = 0x%04X" % (
        bench.executable.er_min, bench.executable.er_max))
    print("Trusted ISRs inside ER:", {
        index: "0x%04X" % address
        for index, address in bench.executable.isr_entries.items()
    })

    # Run the full PoX exchange; a button press arrives at step 6, while
    # the ER is still executing.
    result = bench.run_pox(setup=lambda device: device.schedule_button_press(6))

    print("\n--- outcome ---")
    print("proof accepted:   ", result.accepted)
    print("reason:           ", result.reason)
    print("EXEC flag:        ", bench.exec_flag)
    print("interrupts served:", bench.device.interrupt_controller.serviced)
    print("loop count in OR: ", bench.output_word(0))
    print("GPIO PORT5 output: 0x%02X (driven by the trusted ISR)"
          % bench.device.gpio5.output_value())

    print("\n--- waveform (Fig. 5a analogue) ---")
    print(bench.waveform(["EXEC", "irq", "PC"]).to_ascii())

    if not result.accepted:
        raise SystemExit("unexpected: the proof should have been accepted")

    campaign_demo()
    cluster_demo()
    telemetry_demo()


if __name__ == "__main__":
    main()
