"""Unit tests for the summary of ``benchmarks/perf_pairs.py``."""

import runpy
from pathlib import Path
from types import SimpleNamespace

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "perf_pairs.py"
perf_pairs = SimpleNamespace(**runpy.run_path(str(_SCRIPT)))
cli_pairs = SimpleNamespace(**runpy.run_path(str(_SCRIPT.with_name("cli_pairs.py"))))

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


class TestVerdict:
    """One case per verdict, on ``op_ms`` (lower is better, bound 25%)."""

    def verdict(self, parent_ms, change_ms):
        return perf_pairs.summarize(_pairs(parent_ms, change_ms), END_TO_END)[0]["verdict"]

    def test_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parent_iqr(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
        change = [7.0, 7.1, 6.9, 7.2, 7.0, 7.1, 6.8, 7.0, 7.1, 10.5]
        assert self.verdict(parent, change) == "gain"
        # Eight wins in ten are not enough.
        assert self.verdict(parent, change[:8] + [10.5, 10.5]) == "same"
        # Nor is winning every pair by less than the parent's IQR (2).
        assert self.verdict([8.0, 9.0, 10.0, 11.0, 12.0],
                            [7.0, 8.0, 9.0, 10.0, 11.0]) == "same"

    def test_worse_when_the_median_rises_beyond_the_bound(self):
        assert self.verdict([10.0, 10.1, 9.9, 10.0, 10.0],
                            [13.0, 13.1, 12.9, 13.0, 13.0]) == "worse"

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self):
        # Parent IQR 8 - 12 = 4 exceeds 25% of its median 10, and some
        # change runs read worse than some parent runs.
        assert self.verdict([6.0, 8.0, 10.0, 12.0, 14.0],
                            [7.0, 9.0, 10.0, 11.0, 13.0]) == "unresolved"

    def test_same_otherwise(self):
        assert self.verdict([10.0, 10.1, 9.9, 10.0, 10.0],
                            [10.2, 10.0, 10.1, 9.9, 10.0]) == "same"

    def test_higher_is_better_metrics_are_judged_the_other_way(self):
        row = perf_pairs.summarize(
            _pairs([10.0] * 5, [10.0] * 5, parent_ok=[1.0] * 5, change_ok=[0.9] * 5),
            END_TO_END)[1]
        assert row["name"] == "ok_ratio" and row["verdict"] == "worse"
        rows = perf_pairs.summarize(_pairs([10.0] * 5, [10.0] * 5), END_TO_END)
        assert [row["verdict"] for row in rows] == ["same", "same"]
        text = perf_pairs.format_summary(rows, 5)
        assert all(line.endswith("same") for line in text.splitlines()[1:3])


class TestCliSummary:
    """``benchmarks/cli_pairs.py``: one row per command, walls in seconds."""

    COMMANDS = ["--list", "E6", ""]

    def rows(self, parent, change):
        pairs = [{"parent": dict(zip(map(cli_pairs.label, self.COMMANDS), p)),
                  "change": dict(zip(map(cli_pairs.label, self.COMMANDS), c))}
                 for p, c in zip(parent, change)]
        return {row["name"]: row for row in cli_pairs.summarize(pairs, self.COMMANDS, 0.25)}

    def test_one_row_per_command_and_the_full_run_is_labelled(self):
        rows = self.rows([(0.18, 0.21, 0.30)], [(0.08, 0.12, 0.29)])
        assert list(rows) == ["--list", "E6", "(all)"]
        assert all(row["unit"] == "s" and row["better"] == "lower" for row in rows.values())

    def test_wins_quartiles_and_verdict_per_command(self):
        parent = [(0.18, 0.21, 0.30), (0.17, 0.20, 0.28), (0.19, 0.22, 0.31),
                  (0.18, 0.21, 0.29), (0.18, 0.20, 0.30)]
        change = [(0.08, 0.12, 0.31), (0.07, 0.11, 0.27), (0.08, 0.13, 0.29),
                  (0.09, 0.12, 0.30), (0.08, 0.12, 0.28)]
        rows = self.rows(parent, change)
        assert rows["--list"]["wins"] == {"parent": 0, "change": 5}
        assert rows["--list"]["parent"] == (0.18, 0.18, 0.18)
        assert rows["--list"]["change"] == (0.08, 0.08, 0.08)
        assert rows["--list"]["verdict"] == rows["E6"]["verdict"] == "gain"
        assert rows["(all)"]["wins"] == {"parent": 2, "change": 3}
        assert rows["(all)"]["verdict"] == "same"

    def test_the_bound_decides_worse(self):
        rows = self.rows([(0.10, 0.20, 0.30)] * 5, [(0.10, 0.20, 0.40)] * 5)
        assert rows["(all)"]["verdict"] == "worse"
        assert rows["--list"]["verdict"] == rows["E6"]["verdict"] == "same"
