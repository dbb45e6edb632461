"""Alternating parent/change pairs of the repository's benchmark.

Compares the working tree with a parent commit on one ``perfbench``
workload, end to end::

    python benchmarks/perf_pairs.py --parent HEAD --workload pox \\
        --pairs 10 --seconds 30 --seed 500

The committed files of ``--parent`` are extracted into a temporary
directory (``git archive``), so the parent runs exactly what was
committed and the repository's git state is left alone.  Each pair runs
``perfbench/run.py --trace 0`` once in each tree, from that tree, with
the pair's seed (``--seed`` plus the pair index); the side that runs
first alternates from pair to pair.  Every run prints ``correct`` and
its metrics.  The summary gives, per end-to-end metric of
``BENCHMARK.json``, the pairs each side won (ties count for neither),
each side's median and quartiles, and a verdict (see :func:`verdict`).

Exit status: 0 when every run was ``correct``, 1 otherwise, 2 when a
run produced no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` of *values* (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float], lower: bool,
            bound: float) -> str:
    """One metric's verdict on paired runs: run *i* of *parent* and of
    *change* made pair *i*; *bound* is the metric's ``BENCHMARK.json``
    bound, a fraction of the parent's median.

    * ``gain``: the change wins at least 9 in 10 pairs, and its median
      beats the parent's by more than the parent's interquartile range;
    * ``worse``: the change's median is worse than the parent's by more
      than the bound;
    * ``unresolved``: the parent's interquartile range exceeds the bound,
      and not every change run beats every parent run;
    * ``same``: otherwise.
    """
    # Scores: lower is better whichever way the metric points.
    parent = [value if lower else -value for value in parent]
    change = [value if lower else -value for value in change]
    parent_q1, parent_median, parent_q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    spread = parent_q3 - parent_q1
    allowed = bound * abs(parent_median)
    wins = sum(c < p for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and parent_median - change_median > spread:
        return "gain"
    if change_median - parent_median > allowed:
        return "worse"
    if spread > allowed and not max(change) < min(parent):
        return "unresolved"
    return "same"


def summarize(pairs: Sequence[Dict[str, dict]], end_to_end: Sequence[dict]) -> List[dict]:
    """Per metric: wins per side, each side's quartiles and the verdict.

    *pairs* holds one ``{"parent": metrics, "change": metrics}`` per
    pair, each ``metrics`` mapping a metric name to its value;
    *end_to_end* is ``BENCHMARK.json``'s list of metric declarations.
    """
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        wins = dict.fromkeys(SIDES, 0)
        for pair in pairs:
            parent, change = pair["parent"][name], pair["change"][name]
            if parent != change:
                wins["change" if (change < parent) == lower else "parent"] += 1
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        rows.append({
            "name": name, "unit": metric["unit"], "better": metric["better"],
            "wins": wins,
            **{side: quartiles(values[side]) for side in SIDES},
            "verdict": verdict(values["parent"], values["change"], lower, metric["bound"]),
        })
    return rows


def format_summary(rows: Sequence[dict], pairs: int) -> str:
    lines = ["%-12s %-6s %11s  %-30s  %-30s  %-13s  %s" % (
        "metric", "better", "wins c:p", "parent q1 / median / q3",
        "change q1 / median / q3", "median change", "verdict")]
    for row in rows:
        parent, change = row["parent"], row["change"]
        shift = (change[1] - parent[1]) / parent[1] if parent[1] else 0.0
        lines.append("%-12s %-6s %5d:%-5d  %-30s  %-30s  %-13s  %s" % (
            row["name"], row["better"], row["wins"]["change"], row["wins"]["parent"],
            "%.4g / %.4g / %.4g" % parent, "%.4g / %.4g / %.4g" % change,
            "%+.1f%%" % (100 * shift), row["verdict"]))
    lines.append("(%d pairs; unit per metric: %s)" % (
        pairs, ", ".join("%s %s" % (row["name"], row["unit"]) for row in rows)))
    return "\n".join(lines)


def extract(ref: str, into: Path) -> None:
    """Write the committed files of *ref* into the directory *into*."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in *tree*; its final JSON line."""
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = process.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print("error: no result from %s (exit %d):\n%s"
              % (tree, process.returncode, process.stderr[-2000:]), file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="commit to compare the working tree with (default HEAD)")
    parser.add_argument("--workload", default="pox", choices=("paper", "pox", "fleet"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        trees = {"parent": Path(scratch), "change": ROOT}
        extract(args.parent, trees["parent"])
        pairs, all_correct = [], True
        for index in range(args.pairs):
            seed = args.seed + index
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                result = run_once(trees[side], args.workload, seed, args.seconds)
                metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
                pair[side] = metrics
                all_correct &= bool(result["correct"])
                print("pair %d seed %d %-6s correct=%s %s" % (
                    index, seed, side, result["correct"],
                    " ".join("%s=%.6g" % item for item in metrics.items())), flush=True)
            pairs.append(pair)
    print(format_summary(summarize(pairs, end_to_end), len(pairs)))
    if not all_correct:
        print("error: at least one run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
