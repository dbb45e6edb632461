"""Interleaved parent/change process walls of the experiment CLI.

Times ``python -m repro.experiments <args>`` from process start to exit,
in a parent commit and in the working tree::

    python benchmarks/cli_pairs.py --parent HEAD --runs 15

The committed files of ``--parent`` are extracted into a temporary
directory (``perf_pairs.extract``).  Each round runs every command once
in each tree, from that tree; the side that runs first alternates from
round to round.  Each wall is scaled to the reference core of
``perfbench`` by ``perfbench/common.probe()`` taken just before and just
after the process.  The default commands are ``--list``, ``E4-E5``,
``E6`` and the full run (``--command ""``).  The summary gives, per
command, the rounds each side won, each side's median and quartiles in
seconds, and ``perf_pairs.verdict`` with the ``op_ms`` bound of
``BENCHMARK.json``.

Exit status: 0 when every process exited 0, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "perfbench")]

import perf_pairs  # noqa: E402 - these two need the path entries above
from common import probe, scaled  # noqa: E402

DEFAULT_COMMANDS = ("--list", "E4-E5", "E6", "")


def label(command: str) -> str:
    """The summary's name for a command line (``(all)`` for the full run)."""
    return command or "(all)"


def summarize(pairs: Sequence[Dict[str, Dict[str, float]]], commands: Sequence[str],
              bound: float) -> List[dict]:
    """Per command: wins per side, each side's quartiles and the verdict.

    *pairs* holds one ``{"parent": walls, "change": walls}`` per round,
    each ``walls`` mapping a command's label to its scaled wall in
    seconds; *bound* is the bound every verdict uses.
    """
    metrics = [{"name": label(command), "unit": "s", "better": "lower", "bound": bound}
               for command in commands]
    return perf_pairs.summarize(pairs, metrics)


def timed_run(tree: Path, command: str) -> float:
    """One process of *command* in *tree*; its probe-scaled wall."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "repro.experiments", *shlex.split(command)]
    before = probe()
    started = time.perf_counter()
    process = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - started
    after = probe()
    if process.returncode != 0:
        raise RuntimeError("%s in %s exited %d:\n%s" % (
            " ".join(argv[1:]), tree, process.returncode, process.stderr[-2000:]))
    return scaled(wall, (before + after) / 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="commit to compare the working tree with (default HEAD)")
    parser.add_argument("--runs", type=int, default=15, help="rounds (runs a side)")
    parser.add_argument("--command", action="append", dest="commands", metavar="ARGS",
                        help="arguments of one command, repeatable; \"\" is the full "
                             "run (default: --list, E4-E5, E6 and the full run)")
    args = parser.parse_args(argv)
    commands = args.commands if args.commands is not None else list(DEFAULT_COMMANDS)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bound = next(metric["bound"] for metric in end_to_end if metric["name"] == "op_ms")
    with tempfile.TemporaryDirectory(prefix="cli-pairs-") as scratch:
        trees = {"parent": Path(scratch), "change": ROOT}
        perf_pairs.extract(args.parent, trees["parent"])
        pairs = []
        for index in range(args.runs):
            order = perf_pairs.SIDES if index % 2 == 0 else perf_pairs.SIDES[::-1]
            pair = {side: {} for side in perf_pairs.SIDES}
            for command in commands:
                for side in order:
                    try:
                        pair[side][label(command)] = timed_run(trees[side], command)
                    except RuntimeError as error:
                        print("error: %s" % error, file=sys.stderr)
                        return 1
            print("round %d %s" % (index, " ".join(
                "%s=%.4f/%.4f" % (name, pair["parent"][name], pair["change"][name])
                for name in pair["parent"])), flush=True)
            pairs.append(pair)
    print(perf_pairs.format_summary(summarize(pairs, commands, bound), len(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
