"""Compare a fresh benchmark run against the committed baseline.

CI regenerates the bench artifacts on every PR and fails the build when
any row's throughput regressed by more than ``--threshold`` (default
30%) against the committed ``benchmarks/*.baseline.json``::

    python benchmarks/compare_bench.py                  # sim profile
    python benchmarks/compare_bench.py --profile fleet  # fleet profile
    python benchmarks/compare_bench.py --current BENCH_sim.json
    python benchmarks/compare_bench.py --absolute --threshold 0.10

Three gated **profiles**, selected with ``--profile``:

* ``sim`` (default): ``BENCH_sim.json`` rows keyed by ``label``
  (``interp-idle``, ``interp-monitored``, ``interp-memloop``,
  ``interp-attest``), rates from ``steps_per_sec``, normalized to the
  ``interp-idle`` row -- so the gate tracks the interpreter's workload
  overhead ratios (ASAP-monitored idle loop, memory-heavy loop,
  attestation inner loop vs the bare idle loop) rather than absolute
  runner speed.
* ``fleet``: ``BENCH_fleet.json`` rows keyed by ``label``, rates from
  ``exchanges_per_sec``, normalized to the single-device
  ``loopback-1`` row -- so the gate tracks how fleet/cluster
  throughput *scales* (16-device vs 1-device, 2-shard vs 1-shard)
  rather than raw exchange rates.
* ``attest``: ``BENCH_attest.json`` rows keyed by ``label``
  (``pure-64KiB``, ``fast-256B``, ...), rates from
  ``reports_per_sec``, normalized to the ``pure-64KiB`` reference --
  tracking the fast-backend speedup and the small-region overhead
  ratio rather than absolute crypto throughput.

Two comparison modes:

* **normalized** (default): each file's rows are divided by that file's
  reference row before comparing, so the check tracks the *relative*
  rates (memloop-vs-idle, cluster-vs-single and so on) and is immune
  to CI runners of different absolute speed.
* ``--absolute``: raw rates are compared directly.  Only meaningful
  when baseline and current ran on comparable hardware.

Exit status: 0 when every row holds the line, 1 listing the regressed
rows, 2 for malformed/missing inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 0.30

#: Default normalization denominator for the bare helpers
#: (:func:`normalize` / :func:`compare`): the sim profile's reference row.
REFERENCE_ROW = "interp-idle"

#: Gated benchmark profiles: which artifact, which row field names the
#: row, which field carries its rate, and which row the others are
#: normalized against.  Baselines are committed next to this script and
#: regenerated deliberately (run the bench, copy the fresh artifact
#: over the ``.baseline.json``) when a PR moves the needle on purpose.
PROFILES = {
    "sim": {
        "baseline": "BENCH_sim.baseline.json",
        "current": "BENCH_sim.json",
        "key": "label",
        "value": "steps_per_sec",
        "reference": "interp-idle",
    },
    "fleet": {
        "baseline": "BENCH_fleet.baseline.json",
        "current": "BENCH_fleet.json",
        "key": "label",
        "value": "exchanges_per_sec",
        "reference": "loopback-1",
    },
    "attest": {
        "baseline": "BENCH_attest.baseline.json",
        "current": "BENCH_attest.json",
        "key": "label",
        "value": "reports_per_sec",
        "reference": "pure-64KiB",
    },
}

#: Default (sim-profile) paths, kept for importers.
DEFAULT_BASELINE = Path(__file__).resolve().parent / PROFILES["sim"]["baseline"]
DEFAULT_CURRENT = Path(PROFILES["sim"]["current"])


def load_rates(path, key="label", value="steps_per_sec"):
    """``{row[key]: row[value]}`` from a ``BENCH_*.json`` file."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise SystemExit("cannot read %s: %s" % (path, error))
    rates = {}
    for row in payload.get("rows", []):
        if isinstance(row, dict) and value in row:
            rates[row.get(key, "?")] = float(row[value])
    if not rates:
        raise SystemExit("%s carries no %s rows" % (path, value))
    return rates


def normalize(rates, reference=REFERENCE_ROW):
    """Rates relative to the file's own reference row."""
    denominator = rates.get(reference)
    if not denominator:
        raise SystemExit(
            "no %r row to normalize against (rows: %s)"
            % (reference, ", ".join(sorted(rates))))
    return {name: rate / denominator for name, rate in rates.items()}


def compare(baseline, current, threshold, absolute=False,
            reference=REFERENCE_ROW):
    """Regressed rows as ``(name, baseline_value, current_value)``."""
    if not absolute:
        baseline = normalize(baseline, reference)
        current = normalize(current, reference)
    regressions = []
    for name, reference_value in sorted(baseline.items()):
        value = current.get(name)
        if value is None:
            # A dropped row is itself a regression: the bench stopped
            # measuring something the baseline tracks.
            regressions.append((name, reference_value, None))
        elif value < (1.0 - threshold) * reference_value:
            regressions.append((name, reference_value, value))
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python benchmarks/compare_bench.py",
        description="Fail when a benchmark artifact regressed against "
                    "the committed baseline.",
    )
    parser.add_argument("--profile", choices=sorted(PROFILES), default="sim",
                        help="which bench artifact to gate "
                             "(default: %(default)s)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline artifact (default: the profile's "
                             "committed *.baseline.json)")
    parser.add_argument("--current", type=Path, default=None,
                        help="freshly measured artifact (default: the "
                             "profile's BENCH_*.json in the working "
                             "directory)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        metavar="FRACTION",
                        help="allowed fractional drop before failing "
                             "(default: %(default)s)")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw rates instead of rates "
                             "normalized to each file's reference row")
    args = parser.parse_args(argv)
    if not 0.0 <= args.threshold < 1.0:
        parser.error("--threshold must be in [0, 1)")
    profile = PROFILES[args.profile]
    if args.baseline is None:
        args.baseline = Path(__file__).resolve().parent / profile["baseline"]
    if args.current is None:
        args.current = Path(profile["current"])

    key, value, reference = profile["key"], profile["value"], profile["reference"]
    baseline = load_rates(args.baseline, key=key, value=value)
    current = load_rates(args.current, key=key, value=value)
    unit = value.replace("_per_sec", "/sec") if args.absolute \
        else "x vs %s" % reference
    regressions = compare(baseline, current, args.threshold,
                          absolute=args.absolute, reference=reference)

    shown = baseline if args.absolute else normalize(baseline, reference)
    shown_current = current if args.absolute else normalize(current, reference)
    for name in sorted(set(shown) | set(shown_current)):
        print("%-12s baseline %12s   current %12s  (%s)" % (
            name,
            "%.2f" % shown[name] if name in shown else "-",
            "%.2f" % shown_current[name] if name in shown_current else "-",
            unit,
        ))

    if regressions:
        print("\nREGRESSION: >%0.f%% drop against %s"
              % (args.threshold * 100, args.baseline))
        for name, reference_value, value_now in regressions:
            if value_now is None:
                print("  %s: row disappeared (baseline %.2f %s)"
                      % (name, reference_value, unit))
            else:
                print("  %s: %.2f -> %.2f %s (-%.0f%%)"
                      % (name, reference_value, value_now, unit,
                         100 * (1 - value_now / reference_value)))
        return 1
    print("\nOK: no row regressed more than %.0f%%" % (args.threshold * 100))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
