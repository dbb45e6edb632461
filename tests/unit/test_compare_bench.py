"""Unit tests for ``benchmarks/compare_bench.py`` (the CI perf gate)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def _payload(idle, memloop):
    """A minimal labeled sim-profile artifact (two workload rows)."""
    return {
        "benchmark": "execution_engine_throughput",
        "rows": [
            {"label": "interp-idle", "steps_per_sec": idle},
            {"label": "interp-memloop", "steps_per_sec": memloop},
        ],
    }


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return path


class TestCompare:
    def test_no_regression_when_identical(self):
        rates = {"interp-idle": 100.0, "interp-memloop": 60.0}
        assert compare_bench.compare(rates, dict(rates), 0.30) == []

    def test_normalized_mode_ignores_machine_speed(self):
        # Half-speed machine, same relative rate: not a regression.
        baseline = {"interp-idle": 100.0, "interp-memloop": 60.0}
        current = {"interp-idle": 50.0, "interp-memloop": 30.0}
        assert compare_bench.compare(baseline, current, 0.30) == []

    def test_normalized_mode_catches_relative_collapse(self):
        # Same absolute idle rate but the memloop row fell 10x.
        baseline = {"interp-idle": 100.0, "interp-memloop": 60.0}
        current = {"interp-idle": 100.0, "interp-memloop": 6.0}
        regressions = compare_bench.compare(baseline, current, 0.30)
        assert [row for row, _, _ in regressions] == ["interp-memloop"]

    def test_absolute_mode_catches_uniform_slowdown(self):
        baseline = {"interp-idle": 100.0, "interp-memloop": 60.0}
        current = {"interp-idle": 50.0, "interp-memloop": 30.0}
        regressions = compare_bench.compare(baseline, current, 0.30,
                                            absolute=True)
        assert [row for row, _, _ in regressions] \
            == ["interp-idle", "interp-memloop"]

    def test_drop_within_threshold_passes(self):
        baseline = {"interp-idle": 100.0, "interp-memloop": 60.0}
        current = {"interp-idle": 100.0, "interp-memloop": 45.0}  # -25%
        assert compare_bench.compare(baseline, current, 0.30) == []

    def test_dropped_row_is_a_regression(self):
        baseline = {"interp-idle": 100.0, "interp-memloop": 60.0}
        regressions = compare_bench.compare(
            baseline, {"interp-idle": 100.0}, 0.30)
        assert regressions == [("interp-memloop", 0.6, None)]

    def test_normalize_requires_reference_row(self):
        with pytest.raises(SystemExit):
            compare_bench.normalize({"interp-memloop": 60.0})


class TestMain:
    def test_exit_zero_when_clean(self, tmp_path, capsys):
        baseline = _write(tmp_path / "base.json", _payload(100.0, 60.0))
        current = _write(tmp_path / "cur.json", _payload(90.0, 57.0))
        code = compare_bench.main([
            "--baseline", str(baseline), "--current", str(current)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        baseline = _write(tmp_path / "base.json", _payload(100.0, 60.0))
        current = _write(tmp_path / "cur.json", _payload(100.0, 6.0))
        code = compare_bench.main([
            "--baseline", str(baseline), "--current", str(current)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_current_file_exits_nonzero(self, tmp_path):
        baseline = _write(tmp_path / "base.json", _payload(100.0, 60.0))
        with pytest.raises(SystemExit):
            compare_bench.main([
                "--baseline", str(baseline),
                "--current", str(tmp_path / "missing.json")])

    def test_bad_threshold_rejected(self, tmp_path):
        baseline = _write(tmp_path / "base.json", _payload(100.0, 60.0))
        with pytest.raises(SystemExit):
            compare_bench.main([
                "--baseline", str(baseline), "--current", str(baseline),
                "--threshold", "1.5"])

    def test_committed_baseline_is_loadable(self):
        rates = compare_bench.load_rates(compare_bench.DEFAULT_BASELINE)
        assert compare_bench.REFERENCE_ROW in rates

    def test_committed_baseline_has_labeled_workload_rows(self):
        profile = compare_bench.PROFILES["sim"]
        assert profile["reference"] == "interp-idle"
        rates = compare_bench.load_rates(
            compare_bench.DEFAULT_BASELINE,
            key=profile["key"], value=profile["value"])
        assert sorted(rates) == ["interp-attest", "interp-idle",
                                 "interp-memloop", "interp-monitored"]


def _fleet_payload(loopback1, cluster2):
    return {
        "benchmark": "fleet_exchanges_per_second",
        "rows": [
            {"label": "loopback-1", "exchanges_per_sec": loopback1},
            {"label": "cluster-2", "exchanges_per_sec": cluster2},
        ],
    }


class TestFleetProfile:
    def test_profile_table_is_well_formed(self):
        for profile in compare_bench.PROFILES.values():
            assert {"baseline", "current", "key", "value", "reference"} \
                <= set(profile)

    def test_fleet_rows_load_by_label(self, tmp_path):
        path = _write(tmp_path / "fleet.json", _fleet_payload(100.0, 260.0))
        rates = compare_bench.load_rates(path, key="label",
                                         value="exchanges_per_sec")
        assert rates == {"loopback-1": 100.0, "cluster-2": 260.0}

    def test_fleet_normalizes_to_loopback_1(self):
        rates = {"loopback-1": 100.0, "cluster-2": 260.0}
        normalized = compare_bench.normalize(rates, reference="loopback-1")
        assert normalized == {"loopback-1": 1.0, "cluster-2": 2.6}

    def test_fleet_gate_catches_scaling_collapse(self, tmp_path, capsys):
        baseline = _write(tmp_path / "base.json", _fleet_payload(100.0, 260.0))
        # Same absolute loopback rate, but the cluster speedup halved.
        current = _write(tmp_path / "cur.json", _fleet_payload(100.0, 130.0))
        code = compare_bench.main([
            "--profile", "fleet",
            "--baseline", str(baseline), "--current", str(current)])
        assert code == 1
        assert "cluster-2" in capsys.readouterr().out

    def test_fleet_gate_ignores_uniform_machine_speed(self, tmp_path, capsys):
        baseline = _write(tmp_path / "base.json", _fleet_payload(100.0, 260.0))
        current = _write(tmp_path / "cur.json", _fleet_payload(50.0, 130.0))
        code = compare_bench.main([
            "--profile", "fleet",
            "--baseline", str(baseline), "--current", str(current)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_committed_fleet_baseline_matches_profile(self):
        profile = compare_bench.PROFILES["fleet"]
        path = _SCRIPT.parent / profile["baseline"]
        rates = compare_bench.load_rates(path, key=profile["key"],
                                         value=profile["value"])
        assert profile["reference"] in rates
        assert "cluster-1" in rates and "cluster-2" in rates


class TestAttestAndCampaignProfiles:
    def test_committed_attest_baseline_matches_profile(self):
        profile = compare_bench.PROFILES["attest"]
        rates = compare_bench.load_rates(
            _SCRIPT.parent / profile["baseline"],
            key=profile["key"], value=profile["value"])
        assert profile["reference"] in rates
        assert {"pure-256B", "pure-64KiB", "fast-256B", "fast-64KiB"} \
            <= set(rates)

    def test_committed_campaign_baseline_matches_profile(self):
        profile = compare_bench.PROFILES["campaign"]
        rates = compare_bench.load_rates(
            _SCRIPT.parent / profile["baseline"],
            key=profile["key"], value=profile["value"])
        assert profile["reference"] in rates
        assert {"serial-1", "store-cold", "store-warm"} <= set(rates)
        # The whole point of the store: the committed warm-run row must
        # dominate the cold one by a wide margin.
        assert rates["store-warm"] > 5 * rates["store-cold"]

    def test_campaign_gate_catches_store_speedup_collapse(self, tmp_path,
                                                          capsys):
        def payload(warm):
            return {"rows": [
                {"label": "serial-1", "scenarios_per_sec": 100.0},
                {"label": "store-warm", "scenarios_per_sec": warm},
            ]}
        baseline = _write(tmp_path / "base.json", payload(2000.0))
        current = _write(tmp_path / "cur.json", payload(150.0))
        code = compare_bench.main([
            "--profile", "campaign",
            "--baseline", str(baseline), "--current", str(current)])
        assert code == 1
        assert "store-warm" in capsys.readouterr().out

    def test_attest_gate_ignores_machine_speed(self, tmp_path, capsys):
        def payload(scale):
            return {"rows": [
                {"label": "pure-64KiB", "reports_per_sec": 2.0 * scale},
                {"label": "fast-64KiB", "reports_per_sec": 4000.0 * scale},
            ]}
        baseline = _write(tmp_path / "base.json", payload(1.0))
        current = _write(tmp_path / "cur.json", payload(0.25))
        code = compare_bench.main([
            "--profile", "attest",
            "--baseline", str(baseline), "--current", str(current)])
        assert code == 0
        assert "OK" in capsys.readouterr().out