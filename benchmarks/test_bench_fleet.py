"""Fleet attestation service throughput: exchanges/sec vs fleet size.

Stands up one :class:`~repro.net.service.VerifierService` and drives
sustained mixed RA/PoX traffic from fleets of simulated provers over
the in-process loopback transport, then splits one fleet between one
and two services (``Fleet(32, shards=1)`` vs ``Fleet(32, shards=2)``,
every service on the same event loop).  Records aggregate
exchanges/sec per row into ``BENCH_fleet.json`` alongside the other
bench artifacts; every row carries a ``label`` so
``compare_bench.py --profile fleet`` can gate the scaling trajectory
against ``BENCH_fleet.baseline.json`` (normalized to ``loopback-1``).

The correctness bar baked into the bench (and the reason the fixed
verifier is load-bearing): after a 32-device sweep of concurrent
exchanges through one service, **every** exchange completed and the
issued-challenge table is empty -- zero growth, even though the sweep
included thousands of challenge issuances.

Run with ``pytest benchmarks/test_bench_fleet.py --benchmark-only -s``.
Set ``REPRO_SOAK=1`` to also run the 1000-device, 4-service soak
(minutes; excluded from tier-1 and CI).
"""

from __future__ import annotations

import os

from repro.net import Fleet

#: Fleet sizes swept over the loopback transport.
FLEET_SIZES = (1, 4, 16, 32)

#: Exchanges per device per sweep (alternating RA and PoX).
EXCHANGES_PER_DEVICE = 4

#: Devices split between the services of the cluster rows (RA-only mix).
CLUSTER_DEVICES = 32

#: RA exchanges per device for the cluster rows.
CLUSTER_EXCHANGES_PER_DEVICE = 2


def _sweep(size):
    fleet = Fleet(size, architecture="asap")
    return fleet.run(exchanges_per_device=EXCHANGES_PER_DEVICE)


def _cluster_sweep(size, shards):
    fleet = Fleet(size, shards=shards, architecture="asap")
    return fleet.run(exchanges_per_device=CLUSTER_EXCHANGES_PER_DEVICE,
                     mix=("ra",))


def test_fleet_exchanges_per_second(benchmark, table_printer, bench_json):
    """Exchanges/sec vs fleet size; 32 devices, one service, zero
    challenge-table growth."""
    rows = []
    payload_rows = []
    reports = {}
    for size in FLEET_SIZES:
        report = _sweep(size)
        reports[size] = report
        rows.append({
            "fleet": size,
            "transport": "loopback",
            "exchanges": report.exchanges,
            "accepted": report.accepted,
            "exchanges/sec": "%.0f" % report.exchanges_per_second,
            "pending after": report.pending_challenges_after,
        })
        payload_rows.append({
            "label": "loopback-%d" % size,
            "fleet_size": size,
            "transport": "loopback",
            "exchanges": report.exchanges,
            "accepted": report.accepted,
            "exchanges_per_sec": report.exchanges_per_second,
            "pending_challenges_after": report.pending_challenges_after,
        })

    table_printer("Fleet service throughput (mixed RA/PoX)", rows)

    # ---- one fleet split between 1 and 2 services --------------------
    cluster_rows = []
    cluster_reports = {}
    for shard_count in (1, 2):
        report = _cluster_sweep(CLUSTER_DEVICES, shard_count)
        cluster_reports[shard_count] = report
        cluster_rows.append({
            "shards": shard_count,
            "devices": CLUSTER_DEVICES,
            "exchanges": report.exchanges,
            "accepted": report.accepted,
            "exchanges/sec": "%.0f" % report.exchanges_per_second,
        })
        payload_rows.append({
            "label": "cluster-%d" % shard_count,
            "fleet_size": CLUSTER_DEVICES,
            "transport": "inline-shards",
            "shards": shard_count,
            "exchanges": report.exchanges,
            "accepted": report.accepted,
            "exchanges_per_sec": report.exchanges_per_second,
        })
    table_printer("Sharded fleet scaling (RA-only)", cluster_rows)

    bench_json("BENCH_fleet.json", {
        "benchmark": "fleet_exchanges_per_second",
        "unit": "exchanges/sec",
        "exchanges_per_device": EXCHANGES_PER_DEVICE,
        "rows": payload_rows,
    })

    # Timing statistics for a small steady-state fleet.
    benchmark.pedantic(lambda: _sweep(4), rounds=3)

    # --- the acceptance bar -------------------------------------------
    big = reports[32]
    assert big.exchanges == 32 * EXCHANGES_PER_DEVICE
    assert big.all_accepted(), \
        [r.reason for r in big.results if not r.accepted]
    # Zero challenge-table growth after the sweep: every issued
    # challenge was consumed by a terminal verdict.
    assert big.pending_challenges_after == 0
    assert big.service_counters["challenges"] == big.exchanges

    # Sharding never costs verdicts, whatever it does for throughput.
    # Throughput is not asserted: the services share one event loop
    # with the provers, whose simulation bounds the rate, so a
    # 2-shard/1-shard ratio would measure the load generator, not the
    # services.
    for shard_count, report in cluster_reports.items():
        assert report.exchanges == CLUSTER_DEVICES * CLUSTER_EXCHANGES_PER_DEVICE
        assert report.all_accepted(), (shard_count, report)
        assert report.pending_challenges_after == 0


def test_cluster_soak_1k_devices(benchmark, table_printer):
    """1000 devices split between 4 services, one RA exchange each.

    A minutes-long memory/correctness soak of a sharded fleet, not a
    throughput number: excluded from tier-1 and CI, run on demand with
    ``REPRO_SOAK=1 pytest benchmarks/test_bench_fleet.py -k soak -s``.
    """
    import pytest

    if not os.environ.get("REPRO_SOAK"):
        pytest.skip("set REPRO_SOAK=1 to run the 1000-device soak")

    def soak():
        fleet = Fleet(1000, shards=4, architecture="asap")
        return fleet.run(exchanges_per_device=1, mix=("ra",))

    report = benchmark.pedantic(soak, rounds=1)
    table_printer("Sharded fleet soak (1000 devices, 4 services)", [{
        "exchanges": report.exchanges,
        "accepted": report.accepted,
        "exchanges/sec": "%.0f" % report.exchanges_per_second,
        "shards": report.shard_count,
    }])
    assert report.exchanges == 1000
    assert report.all_accepted()
    # Every service's challenge table drained.
    assert report.pending_challenges_after == 0
