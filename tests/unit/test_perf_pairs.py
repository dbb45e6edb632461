"""Unit tests for the summary of ``benchmarks/perf_pairs.py``."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _SCRIPT)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

END_TO_END = [
    {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def _pairs(parent_ms, change_ms, parent_ok=None, change_ok=None):
    parent_ok = parent_ok or [1.0] * len(parent_ms)
    change_ok = change_ok or [1.0] * len(change_ms)
    return [{"parent": {"op_ms": p, "ok_ratio": po}, "change": {"op_ms": c, "ok_ratio": co}}
            for p, c, po, co in zip(parent_ms, change_ms, parent_ok, change_ok)]


class TestSummary:
    def test_wins_follow_the_better_direction_and_ties_count_for_neither(self):
        pairs = _pairs([10.0, 11.0, 12.0, 9.0], [7.0, 11.0, 13.0, 6.0],
                       parent_ok=[1.0, 0.9, 1.0, 1.0], change_ok=[1.0, 1.0, 0.8, 1.0])
        rows = {row["name"]: row for row in perf_pairs.summarize(pairs, END_TO_END)}
        assert rows["op_ms"]["wins"] == {"parent": 1, "change": 2}
        assert rows["ok_ratio"]["wins"] == {"parent": 1, "change": 1}

    def test_quartiles_per_side(self):
        pairs = _pairs([10.0, 11.0, 12.0, 13.0, 14.0], [5.0, 6.0, 7.0, 8.0, 9.0])
        row = perf_pairs.summarize(pairs, END_TO_END)[0]
        assert row["parent"] == (11.0, 12.0, 13.0)
        assert row["change"] == (6.0, 7.0, 8.0)

    def test_single_pair_has_degenerate_quartiles(self):
        row = perf_pairs.summarize(_pairs([10.0], [8.0]), END_TO_END)[0]
        assert row["parent"] == (10.0, 10.0, 10.0)
        assert row["wins"] == {"parent": 0, "change": 1}

    def test_format_names_every_metric_with_its_median_shift(self):
        rows = perf_pairs.summarize(_pairs([10.0, 10.0], [7.5, 7.5]), END_TO_END)
        text = perf_pairs.format_summary(rows, 2)
        op_line = next(line for line in text.splitlines() if line.startswith("op_ms"))
        assert "2:0" in op_line and "-25.0%" in op_line
        assert "ok_ratio" in text and "(2 pairs;" in text
