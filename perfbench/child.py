"""Fresh-interpreter work for the benchmark.

    python3 perfbench/child.py setup <paper|pox|fleet>
        Cold start: import the program and build the workload's system.
        Prints one JSON line: the probe time (see ``common.probe``),
        the mean of one probe before the imports and one after the build.
    python3 perfbench/child.py pass <0|1>
        One pass of ``python -m repro.experiments`` with its defaults
        (serial backend, all experiments); with 1 the layer boundaries
        are traced.  Prints one JSON line: exit code, rows per
        experiment, the pass's own wall time, peak RSS, the median probe
        time, and either the per-layer table (traced) or the pass's
        pieces: each scenario, each model build and the rest, with the
        probe time around each.

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys

from common import probe


def setup(workload: str) -> dict:
    before = probe()
    if workload == "paper":
        import repro.experiments.__main__  # noqa: F401 - the import is the set-up
    elif workload == "pox":
        import pox

        pox.build()
    elif workload == "fleet":
        import fleet

        fleet.System()
    else:
        raise SystemExit("unknown workload %r" % workload)
    return {"probe_s": (before + probe()) / 2}


def paper_pass(traced: bool) -> dict:
    import repro.experiments.__main__ as cli
    from repro.experiments import runners

    import layers
    from common import peak_rss_mb
    from tracing import Tracer, self_time

    captured = []
    run_all = runners.run_all_experiments

    def capture(*args, **kwargs):
        results = run_all(*args, **kwargs)
        captured.extend(results)
        return results

    runners.run_all_experiments = capture
    tracer = Tracer()
    if traced:
        layers.instrument(tracer, around=probe)
    else:
        layers.instrument_pieces(tracer, around=probe)
    report = io.StringIO()
    with contextlib.redirect_stdout(report), tracer.span("bench.run") as root:
        code = cli.main([])
    pieces = [(span.name, self_time(span), span.attrs["around"])
              for span in tracer.spans if "around" in span.attrs]
    probe_s = statistics.median(probe_seconds for _, _, probe_seconds in pieces)
    payload = {
        "exit": code,
        "wall_s": root.duration,
        "probe_s": probe_s,
        "rss_mb": peak_rss_mb(),
        "rows": {result.experiment_id: result.rows for result in captured},
    }
    if traced:
        payload["layers"] = layers.layer_metrics(tracer, root)
    else:
        payload["pieces"] = pieces + [("rest", self_time(root), probe_s)]
    return payload


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in ("setup", "pass"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "setup":
        print(json.dumps(setup(argv[1])))
    else:
        print(json.dumps(paper_pass(argv[1] == "1")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
