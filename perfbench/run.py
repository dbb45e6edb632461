"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <paper|pox|fleet> --seed N \\
        --seconds S --trace <0|1>

Run from the repository root.  It times the program from outside,
through its public entry points, on the program's defaults (engine
``interp``, crypto ``fast``; the environment knobs that would change
them are removed first).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is a separate run that wraps the layer boundaries with
spans and reports the per-layer metrics.  Lines before the last describe
the run (environment, sample counts, failed gates); the last line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("paper", "pox", "fleet")


def parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print("error: the program's sources (src/repro) are not in %s" % common.ROOT,
              file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    common.pin_environment()
    request = common.Request(args.workload, args.seed, args.seconds, bool(args.trace))

    if args.workload == "paper":
        import paper as workload
    elif args.workload == "pox":
        import pox as workload
    else:
        import fleet as workload
    outcome = workload.run(request)

    if request.trace:
        # A layer this workload never reaches did no work in it.
        metrics = {entry["name"]: {"value": outcome.metrics.get(entry["name"], 0),
                                   "unit": entry["unit"]}
                   for entry in spec["per_layer"]}
    else:
        outcome.metrics["ok_ratio"] = (
            1.0 - outcome.failed / outcome.attempted if outcome.attempted else 0.0)
        missing = [entry["name"] for entry in spec["end_to_end"]
                   if entry["name"] not in outcome.metrics]
        if missing:
            raise common.BenchError("workload did not report %s" % ", ".join(missing))
        metrics = {entry["name"]: {"value": outcome.metrics[entry["name"]],
                                   "unit": entry["unit"]}
                   for entry in spec["end_to_end"]}

    print("env: " + json.dumps(dict(common.environment(), workload=args.workload,
                                    seed=args.seed, seconds=args.seconds,
                                    trace=args.trace)))
    for note in outcome.notes:
        print(note)
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
