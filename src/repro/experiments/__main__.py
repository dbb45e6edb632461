"""Command-line entry point: ``python -m repro.experiments``.

Runs the experiment campaigns and prints the consolidated report::

    python -m repro.experiments                      # everything
    python -m repro.experiments E6 E9                # a subset
    python -m repro.experiments --list               # available ids
    python -m repro.experiments --json report.json   # machine-readable export
    python -m repro.experiments --stream             # per-scenario progress
    python -m repro.experiments --fail-fast          # stop on first failure
    python -m repro.experiments --telemetry telem/   # metrics + spans export
    python -m repro.experiments FLEET --shards 4     # sharded row over 4 services

Campaigns run in-process, one scenario after another.  Unknown flags
are rejected with exit code 2 (argparse); a failing experiment exits 1.
A reader that closes stdout early (``| head -1``) ends the printed
output, not the run: the experiments and the exports still complete.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from repro.experiments import runners
from repro.sim import CampaignRunner

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
        "--shards", type=int, default=None, metavar="N",
        help="verifier services the FLEET experiment's sharded row "
             "splits its devices between (default: 2)",
    )
    parser.add_argument(
        "--json", dest="json_path", metavar="PATH", default=None,
        help="also write the structured results to PATH as JSON",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="print one line per scenario as it completes",
    )
    parser.add_argument(
        "--fail-fast", action="store_true", dest="fail_fast",
        help="stop each campaign at the first failing scenario and "
             "skip the rest of it",
    )
    parser.add_argument(
        "--telemetry", dest="telemetry_dir", metavar="DIR", default=None,
        help="after the run, export the metrics-registry snapshot and "
             "every finished trace span to DIR/telemetry.jsonl "
             "(JSON lines; see repro.obs)",
    )
    return parser


def _print(*args, **kwargs) -> None:
    """``print`` to stdout, where a closed pipe ends the output only.

    The first write into a pipe whose reader has gone (``| head -1``)
    points stdout at the null device, so the run goes on -- its exports
    included -- and ends as it would have, without a traceback.
    """
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_progress(result) -> None:
    """The ``--stream`` line of one completed scenario."""
    status = "ok" if result.ok else ("error" if result.error else "FAIL")
    _print("[%s] %s (%.3fs)" % (status, result.name, result.elapsed_seconds),
           flush=True)


def main(argv=None):
    try:
        return _main(argv)
    finally:
        # Flush here, where a closed pipe is caught, rather than in the
        # interpreter's exit flush, where it is reported.
        _print(end="", flush=True)


def _main(argv):
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
            _print(experiment_id)
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

    if args.shards is not None and args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2

    campaign = CampaignRunner(on_result=_print_progress if args.stream else None,
                              fail_fast=args.fail_fast)
    overrides = None
    if args.shards is not None:
        overrides = {"FLEET": functools.partial(
            runners.run_fleet_control, shards=args.shards)}
    results = runners.run_all_experiments(skip=skip, campaign=campaign,
                                          overrides=overrides)
    for result in results:
        _print(result.render())
        _print()

    if args.json_path:
        runners.write_json(results, args.json_path)
        _print("wrote %d experiment results to %s" % (len(results), args.json_path))

    if args.telemetry_dir is not None:
        from repro.obs import export_telemetry

        path = export_telemetry(args.telemetry_dir)
        _print("wrote telemetry (metrics snapshot + trace spans) to %s" % path)

    failed = [result.experiment_id for result in results if not result.succeeded]
    if failed:
        _print("FAILED experiments: %s" % ", ".join(failed))
        return 1
    _print("All %d experiments reproduce the expected shape." % len(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
