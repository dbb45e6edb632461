"""Command-line entry point: ``python -m repro.experiments``.

Runs the experiment campaigns and prints the consolidated report::

    python -m repro.experiments                      # everything, serial
    python -m repro.experiments E6 E9                # a subset
    python -m repro.experiments --list               # available ids
    python -m repro.experiments --backend process --jobs 4
    python -m repro.experiments --json report.json   # machine-readable export
    python -m repro.experiments --store results/     # incremental re-runs
    python -m repro.experiments --stream             # per-scenario progress
    python -m repro.experiments --fail-fast          # stop on first failure
    python -m repro.experiments --telemetry telem/   # metrics + spans export
    python -m repro.experiments --store results/ --store-prune-age 86400

Unknown flags are rejected with exit code 2 (argparse); a failing
experiment exits 1.

With ``--store DIR`` the campaigns become incremental: every scenario
result is cached under its spec fingerprint, and a re-run of an
unchanged sweep executes zero scenarios (the final ``result store:``
line accounts for cache traffic).  ``--no-reuse`` recomputes everything
while still refreshing the store; ``--stream`` prints one line per
scenario as it completes instead of staying silent until the report.
"""

from __future__ import annotations

import argparse
import functools
import sys

from repro.experiments import runners
from repro.sim import BACKENDS, CampaignRunner

#: Experiment ids, in execution order.  A convenience snapshot for
#: importers; the CLI itself reads the live registry so experiments
#: registered after import are listed, selectable and skippable.
ALL_IDS = list(runners.EXPERIMENT_RUNNERS)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures as "
                    "scenario campaigns.",
    )
    parser.add_argument(
        "ids", nargs="*", metavar="ID",
        help="experiment ids to run (default: all); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_ids",
        help="print the available experiment ids and exit",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="serial",
        help="campaign execution backend (default: serial)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="workers for the thread/process/remote backends "
             "(default: the machine's CPU count)",
    )
    parser.add_argument(
        "--warm-pool", action="store_true", dest="warm_pool",
        help="keep process-pool workers alive across campaigns so they "
             "reuse cached firmware images (process backend only)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="verifier shard count for the FLEET experiment's cluster "
             "row (default: 2)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="liveness heartbeat interval: remote-backend campaign "
             "workers emit heartbeat frames (silent workers are evicted "
             "and their work requeued), and the FLEET experiment's "
             "cluster runs its shard monitor (default: off)",
    )
    parser.add_argument(
        "--json", dest="json_path", metavar="PATH", default=None,
        help="also write the structured results to PATH as JSON",
    )
    parser.add_argument(
        "--store", dest="store_dir", metavar="DIR", default=None,
        help="content-addressed result store directory: scenarios whose "
             "spec fingerprint is already stored are served from cache "
             "instead of executing; executed results are written back",
    )
    parser.add_argument(
        "--no-reuse", action="store_true", dest="no_reuse",
        help="with --store: recompute every scenario (ignore cached "
             "results) but still write fresh results into the store",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="print one line per scenario as it completes (streaming "
             "completion order, not spec order)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true", dest="fail_fast",
        help="abort each campaign at the first failing scenario: "
             "in-flight work is drained (remote workers finish their "
             "current assignment; nothing is requeued) and the "
             "remaining scenarios are skipped",
    )
    parser.add_argument(
        "--telemetry", dest="telemetry_dir", metavar="DIR", default=None,
        help="after the run, export the metrics-registry snapshot and "
             "every finished trace span to DIR/telemetry.jsonl "
             "(JSON lines; see repro.obs)",
    )
    parser.add_argument(
        "--store-prune-entries", type=int, default=None, metavar="N",
        dest="store_prune_entries",
        help="with --store: after the run, keep only the N most "
             "recently written store entries (oldest dropped first)",
    )
    parser.add_argument(
        "--store-prune-age", type=float, default=None, metavar="SECS",
        dest="store_prune_age",
        help="with --store: after the run, drop store entries older "
             "than SECS seconds",
    )
    return parser


def _stream_line(result) -> str:
    """One ``--stream`` progress line per completed scenario."""
    status = "ok" if result.ok else ("error" if result.error else "FAIL")
    source = "cached" if result.cached else "ran"
    return "[%s] %-6s %s (%.3fs)" % (status, source, result.name,
                                     result.elapsed_seconds)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        # argparse exits 2 on unknown flags/bad values (and 0 on --help);
        # surface that as a return code so callers can treat main() as a
        # plain function.
        return exit_request.code

    all_ids = list(runners.EXPERIMENT_RUNNERS)
    if args.list_ids:
        for experiment_id in all_ids:
            print(experiment_id)
        return 0

    skip = None
    if args.ids:
        unknown = [item for item in args.ids if item not in all_ids]
        if unknown:
            print("unknown experiment ids: %s" % ", ".join(unknown),
                  file=sys.stderr)
            return 2
        skip = [experiment_id for experiment_id in all_ids
                if experiment_id not in args.ids]

    if args.jobs is not None and args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.warm_pool and args.backend != "process":
        print("--warm-pool requires --backend process", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.heartbeat is not None and args.heartbeat <= 0:
        print("--heartbeat must be > 0", file=sys.stderr)
        return 2
    if args.no_reuse and args.store_dir is None:
        print("--no-reuse requires --store", file=sys.stderr)
        return 2
    if args.store_prune_entries is not None and args.store_prune_entries < 0:
        print("--store-prune-entries must be >= 0", file=sys.stderr)
        return 2
    if args.store_prune_age is not None and args.store_prune_age < 0:
        print("--store-prune-age must be >= 0", file=sys.stderr)
        return 2
    prune_requested = (args.store_prune_entries is not None
                       or args.store_prune_age is not None)
    if prune_requested and args.store_dir is None:
        print("--store-prune-entries/--store-prune-age require --store",
              file=sys.stderr)
        return 2

    store = None
    if args.store_dir is not None:
        from repro.sim import ResultStore

        store = ResultStore(args.store_dir)

    # Per-scenario streaming/accounting hook: counts cache provenance
    # for the summary line and, under --stream, narrates completions.
    served = {"cached": 0, "executed": 0}

    def on_result(result):
        served["cached" if result.cached else "executed"] += 1
        if args.stream:
            print(_stream_line(result), flush=True)

    # Worker heartbeats belong to the remote backend's dispatcher; for
    # every other backend the flag still reaches the FLEET cluster row.
    campaign_heartbeat = args.heartbeat if args.backend == "remote" else None
    campaign = CampaignRunner(backend=args.backend, jobs=args.jobs,
                              warm=args.warm_pool,
                              heartbeat=campaign_heartbeat,
                              store=store, reuse=not args.no_reuse,
                              # `store is not None`, not truthiness: an
                              # *empty* ResultStore is falsy (__len__).
                              on_result=on_result
                              if (args.stream or store is not None) else None,
                              fail_fast=args.fail_fast)
    overrides = None
    if args.shards is not None or args.heartbeat is not None:
        overrides = {"FLEET": functools.partial(
            runners.run_fleet_control,
            shards=args.shards if args.shards is not None else 2,
            heartbeat=args.heartbeat,
        )}
    results = runners.run_all_experiments(skip=skip, campaign=campaign,
                                          overrides=overrides)
    for result in results:
        print(result.render())
        print()

    if store is not None:
        stats = store.stats()
        print("result store: %d served from cache, %d executed, %d written "
              "(%d unrepresentable skipped) in %s"
              % (served["cached"], served["executed"], stats["writes"],
                 stats["skipped"], store.root))
        if prune_requested:
            pruned = store.prune(max_entries=args.store_prune_entries,
                                 max_age_seconds=args.store_prune_age)
            print("result store pruned: %d entr%s removed, %d kept in %s"
                  % (pruned, "y" if pruned == 1 else "ies", len(store),
                     store.root))

    if args.json_path:
        runners.write_json(results, args.json_path)
        print("wrote %d experiment results to %s" % (len(results), args.json_path))

    if args.telemetry_dir is not None:
        from repro.obs import export_telemetry

        path = export_telemetry(args.telemetry_dir)
        print("wrote telemetry (metrics snapshot + trace spans) to %s" % path)

    failed = [result.experiment_id for result in results if not result.succeeded]
    if failed:
        print("FAILED experiments: %s" % ", ".join(failed))
        return 1
    print("All %d experiments reproduce the expected shape." % len(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
