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

from repro import (
    CampaignRunner,
    EventSpec,
    FirmwareRef,
    Observe,
    PoxTestbench,
    ScenarioSpec,
    TestbenchConfig,
    blinker_firmware,
)


def campaign_demo():
    """A 10-line scenario campaign: the same exchange, swept declaratively.

    ``ScenarioSpec`` is picklable plain data, so the same list can run
    through ``CampaignRunner(backend="process", jobs=4)`` for parallel
    sweeps (add ``warm=True`` to keep the workers -- and their cached
    firmware images -- alive across campaigns), or ``backend="thread"``
    on GIL-free runtimes.  Results come back in spec order either way.
    """
    specs = [
        ScenarioSpec(
            name="blinker-%s-%s" % (architecture, "auth" if authorized else "unauth"),
            firmware=FirmwareRef.of("blinker", authorized=authorized),
            config_overrides={"architecture": architecture},
            events=(EventSpec("button_press", step=6),),
            observe=(Observe("accepted"), Observe("exec_flag")),
        )
        for architecture in ("asap", "apex")
        for authorized in (True, False)
    ]
    outcome = CampaignRunner().run(specs)
    print("\n--- campaign sweep (architecture x ISR authorization) ---")
    for result in outcome:
        print("%-24s %s" % (result.name, result.row))


def store_demo():
    """Incremental campaigns: a content-addressed result store.

    Every spec has a stable content address (``spec.fingerprint()``,
    SHA-256 over the canonical spec encoding + the code epoch).  Give
    the runner a store directory and unchanged scenarios are served
    from disk instead of executing -- the second sweep below runs
    **zero** scenarios and produces identical rows.

    Cached entries are invalidated automatically when anything that
    could change the outcome changes:

    * *the spec* -- any field perturbation (schedule, config override,
      expectation, firmware reference) changes the fingerprint;
    * *the crypto backend* -- for opaque ``job`` specs only, the ambient
      selection (``REPRO_CRYPTO_BACKEND``) is folded in;
    * *the code epoch* -- bump ``repro.sim.CODE_EPOCH`` (or set
      ``REPRO_CODE_EPOCH``) when a code change alters what scenarios
      compute, invalidating every stored result at once.

    The CLI equivalent is ``python -m repro.experiments --store DIR``
    (``--no-reuse`` to recompute, ``--stream`` for per-scenario
    progress lines).
    """
    import tempfile

    specs = [
        ScenarioSpec(
            name="store-blinker-%s" % architecture,
            firmware=FirmwareRef.of("blinker", authorized=True),
            config_overrides={"architecture": architecture},
            events=(EventSpec("button_press", step=6),),
            observe=(Observe("accepted"),),
        )
        for architecture in ("asap", "apex")
    ]
    print("\n--- incremental campaigns (content-addressed store) ---")
    with tempfile.TemporaryDirectory() as store_dir:
        cold = CampaignRunner(store=store_dir).run(specs)
        warm = CampaignRunner(store=store_dir).run(specs)
        print("cold run: %d executed, %d served from cache"
              % (cold.store_misses, cold.store_hits))
        print("warm run: %d executed, %d served from cache"
              % (warm.store_misses, warm.store_hits))
        assert warm.rows() == cold.rows()
        assert all(result.cached for result in warm)
        print("rows identical; fingerprint example: %s..."
              % specs[0].fingerprint()[:16])


def cluster_demo():
    """Cluster control plane: a sharded fleet surviving a shard kill.

    Eight devices enroll across two verifier shards behind a
    consistent-hash router; halfway through the traffic one shard is
    killed outright.  The heartbeat monitor evicts it, the ring
    re-homes its devices onto the survivor, and the run drains with
    graceful degradation instead of hanging -- the report shows the
    eviction, the rebalanced devices and the per-shard verdict mix.
    """
    from repro.cluster import ClusterFleet

    print("\n--- cluster control plane (2 shards, 8 devices) ---")
    fleet = ClusterFleet(8, shards=2, architecture="asap",
                         heartbeat=0.05, deadline=2.0)
    report = fleet.run(exchanges_per_device=4, mix=("ra",),
                       kill_shard="shard-0")
    print("exchanges: %d  accepted: %d  rejected: %d  timed out: %d"
          % (report.exchanges, report.accepted, report.rejected,
             report.timed_out))
    print("evictions: %d  devices rebalanced: %d  surviving shards: %d"
          % (report.evictions, report.rebalanced_devices,
             report.shard_count))
    for stats in report.shards:
        print("  %-8s alive=%-5s exchanges=%-3d accepted=%-3d p99=%.1fms"
              % (stats.shard, stats.alive, stats.exchanges,
                 stats.accepted, stats.p99_seconds * 1e3))


def telemetry_demo():
    """The telemetry spine: one registry, one tracer, every layer.

    ``repro.obs`` gives the whole stack a shared metrics registry
    (counters/gauges/histograms under dotted names) and a tracer whose
    spans cross process boundaries and reassemble into one tree.  The
    campaign below publishes ``campaign.*`` counters and spans as it
    runs; the engine/decode-cache/service families arrive at
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
    specs = [
        ScenarioSpec(
            name="telemetry-blinker-%s" % architecture,
            firmware=FirmwareRef.of("blinker", authorized=True),
            config_overrides={"architecture": architecture},
            events=(EventSpec("button_press", step=6),),
            observe=(Observe("accepted"),),
        )
        for architecture in ("asap", "apex")
    ]
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        with use_registry(MetricsRegistry()) as registry:
            CampaignRunner().run(specs)
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
    # Performance knobs (all forwarded to DeviceConfig):
    #   decode_cache_enabled=True   -- memoise decoded instructions per PC;
    #       ~3x steps/sec, write-invalidated so self-modifying code (and
    #       the attack gallery) still executes fresh bytes.  On by default.
    #   trace_enabled=True          -- per-step trace recording; turn off
    #       for raw simulation speed (waveforms then stay empty).
    #   trace_limit=None            -- bound the trace to the last N steps
    #       (ring buffer) so soak runs cannot grow memory without limit.
    #   link_cache_enabled=True     -- reuse linked firmware images across
    #       testbenches built from the same source (per-process cache).
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
    store_demo()
    cluster_demo()
    telemetry_demo()


if __name__ == "__main__":
    main()
