"""Integration tests for the programmatic experiment runners."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentResult,
    load_json,
    run_all_experiments,
    run_busywait_ablation,
    run_fig5_waveforms,
    run_fig6_overhead,
    run_runtime_overhead,
    run_verification_cost,
    write_json,
)
from repro.experiments import runners
from repro.experiments.__main__ import ALL_IDS, main

ROOT = Path(__file__).resolve().parents[2]

#: The rows a full reproduction must export, pinned per experiment.
PAPER_ROWS = ROOT / "perfbench" / "paper_rows.json"


def _cli_env():
    """The environment of a ``python -m repro.experiments`` subprocess."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestIndividualRunners:
    def test_fig5_runner_covers_three_scenarios(self):
        result = run_fig5_waveforms()
        assert result.succeeded
        assert len(result.rows) == 3
        assert [row["proof accepted"] for row in result.rows] == [True, False, False]

    def test_fig6_runner_reports_negative_deltas(self):
        result = run_fig6_overhead()
        assert result.succeeded
        delta_row = result.rows[-1]
        assert delta_row["luts"] < 0 and delta_row["registers"] < 0

    def test_runtime_runner_zero_overhead(self):
        result = run_runtime_overhead()
        assert result.succeeded
        assert all(row["overhead vs. unprotected"] == 0 for row in result.rows)

    def test_busywait_runner_parameters(self):
        result = run_busywait_ablation(dosage_cycles=150, abort_step=20)
        assert result.succeeded
        assert len(result.rows) == 2

    def test_verification_cost_rows_match_the_pinned_rows(self):
        pinned = json.loads(PAPER_ROWS.read_text(encoding="utf-8"))["E6"]
        result = run_verification_cost()
        assert result.succeeded
        assert result.rows == pinned
        states = {row["property"]: row["states"] for row in result.rows}
        assert {states[name] for name in states if name.startswith("vrased-")} == {512}
        assert states["pox-ltl1-exit-only-at-ermax"] == 16
        assert states["pox-er-immutable"] == 64
        assert states["asap-ltl4-ivt-immutability"] == 24

    def test_fleet_runner_sizes_both_rows(self):
        result = runners.run_fleet_control(shards=3, size=7,
                                           exchanges_per_device=1)
        assert result.succeeded and not result.notes
        assert [(row["topology"], row["devices"], row["shards"],
                 row["exchanges"], row["accepted"], row["evictions"])
                for row in result.rows] == [
            ("single-service", 7, 1, 7, 7, 0), ("cluster", 7, 3, 7, 7, 0)]

    def test_render_produces_table_text(self):
        result = run_fig6_overhead()
        text = result.render()
        assert "E4-E5" in text and "apex_hwmod" in text and "status: ok" in text

    def test_result_dataclass_defaults(self):
        result = ExperimentResult("EX", "title")
        assert result.succeeded
        assert "EX" in result.render()


class TestCommandLine:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        printed = capsys.readouterr().out.split()
        assert printed == ALL_IDS

    def test_unknown_id_rejected(self, capsys):
        assert main(["E42"]) == 2

    def test_single_experiment_run(self, capsys):
        assert main(["E7"]) == 0
        output = capsys.readouterr().out
        assert "Runtime overhead" in output
        assert "All 1 experiments" in output

    def test_unknown_flag_rejected_with_exit_code_2(self, capsys):
        # Regression: the pre-argparse CLI silently dropped any
        # unrecognised ``-``-prefixed argument, so a typo like --liist
        # ran every experiment and exited 0.
        assert main(["--liist"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_flag_with_valid_id_still_rejected(self, capsys):
        assert main(["E7", "--bogus-flag"]) == 2
        assert main(["E7", "--engine", "blocks"]) == 2

    @pytest.mark.parametrize("option, value", [
        ("backend", "serial"),
        ("jobs", "1"),
        ("warm-pool", None),
        ("store", "results"),
        ("no-reuse", None),
        ("store-prune-entries", "5"),
        ("store-prune-age", "60"),
        ("heartbeat", "0.2"),
    ])
    def test_removed_flag_exits_2(self, capsys, option, value):
        # Campaigns run serially and keep no result store, and no fleet
        # service leaves a run to be watched for: the backend,
        # worker-pool, store and heartbeat flags are gone, not silently
        # ignored.
        flag = "--" + option
        argv = ["E7", flag] + ([value] if value is not None else [])
        assert main(argv) == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err

    def test_multiple_ids_select_subset_in_order(self, capsys):
        assert main(["E7", "E4-E5"]) == 0
        output = capsys.readouterr().out
        # Execution order follows the registry, not the argv order.
        assert output.index("E4-E5") < output.index("E7 ")
        assert "All 2 experiments" in output

    def test_json_export_round_trips(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["E7", "E4-E5", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert [entry["experiment_id"] for entry in payload] == ["E4-E5", "E7"]
        assert all(entry["succeeded"] for entry in payload)
        # load_json reconstructs equivalent results: same rows, row for row.
        direct = run_all_experiments(skip=[i for i in ALL_IDS
                                           if i not in ("E4-E5", "E7")])
        loaded = load_json(path)
        assert [r.rows for r in loaded] == [r.rows for r in direct]

    def test_failing_experiment_exits_nonzero(self, capsys, monkeypatch):
        def failing_runner(campaign=None):
            return ExperimentResult("E7", "forced failure", succeeded=False)

        monkeypatch.setitem(runners.EXPERIMENT_RUNNERS, "E7", failing_runner)
        assert main(["E7"]) == 1
        assert "FAILED experiments: E7" in capsys.readouterr().out

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_fleet_experiment_runs_with_shards_flag(self, capsys, tmp_path,
                                                    shards):
        path = tmp_path / "fleet.json"
        assert main(["FLEET", "--shards", str(shards), "--json", str(path)]) == 0
        assert "All 1 experiments" in capsys.readouterr().out
        rows = json.loads(path.read_text())[0]["rows"]
        assert [(row["topology"], row["shards"]) for row in rows] == \
            [("single-service", 1), ("cluster", shards)]
        assert all(row["accepted"] == row["exchanges"] == 12 for row in rows)

    def test_shards_flag_runs_no_unselected_fleet(self, capsys, tmp_path):
        path = tmp_path / "e7.json"
        assert main(["E7", "--shards", "3", "--json", str(path)]) == 0
        assert "All 1 experiments" in capsys.readouterr().out
        exported = json.loads(path.read_text())
        assert [entry["experiment_id"] for entry in exported] == ["E7"]

    @pytest.mark.parametrize("value, message", [
        ("0", "--shards must be >= 1"),
        ("two", "invalid int value: 'two'"),
    ], ids=["zero", "not-an-int"])
    def test_bad_shards_value_rejected(self, capsys, value, message):
        assert main(["FLEET", "--shards", value]) == 2
        assert message in capsys.readouterr().err

    def test_fleet_experiment_fails_when_a_row_loses_a_verdict(
            self, capsys, monkeypatch):
        from repro.net.fleet import FleetReport

        monkeypatch.setattr(FleetReport, "all_accepted", lambda self: False)
        assert main(["FLEET"]) == 1
        output = capsys.readouterr().out
        assert "single-service fleet: 12/12 accepted" in output
        assert "cluster fleet: 12/12 accepted" in output
        assert "FAILED experiments: FLEET" in output

    def test_fail_fast_flag_accepted(self, capsys):
        assert main(["E7", "--fail-fast"]) == 0
        assert "All 1 experiments" in capsys.readouterr().out

    def test_telemetry_flag_exports_jsonl(self, capsys, tmp_path):
        import json

        telemetry = tmp_path / "telemetry"
        assert main(["E7", "--telemetry", str(telemetry)]) == 0
        assert "wrote telemetry" in capsys.readouterr().out
        records = [json.loads(line) for line in
                   (telemetry / "telemetry.jsonl").read_text().splitlines()]
        kinds = {record["record"] for record in records}
        assert kinds == {"metrics", "span"}
        metrics = next(r for r in records if r["record"] == "metrics")
        assert metrics["counters"]["campaign.scenarios"] > 0

    def test_a_closed_stdout_ends_the_output_not_the_run(self, tmp_path):
        # ``... --stream | head -1``: the reader goes after one line.
        exported = tmp_path / "report.json"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "E7", "E4-E5", "--stream",
             "--json", str(exported)],
            env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = process.stdout.readline()
        process.stdout.close()
        _, errors = process.communicate(timeout=300)
        assert first.startswith(b"[ok] ")
        assert b"Traceback" not in errors and b"BrokenPipeError" not in errors, errors
        assert process.returncode == 0
        payload = json.loads(exported.read_text())
        assert [entry["experiment_id"] for entry in payload] == ["E4-E5", "E7"]
        assert all(entry["succeeded"] for entry in payload)

    def test_cli_reads_the_registry_live(self, capsys, monkeypatch):
        def extra_runner(campaign=None):
            return ExperimentResult("E10", "registered after import")

        registry = dict(runners.EXPERIMENT_RUNNERS)
        registry["E10"] = extra_runner
        monkeypatch.setattr(runners, "EXPERIMENT_RUNNERS", registry)
        assert main(["--list"]) == 0
        assert "E10" in capsys.readouterr().out.split()
        assert main(["E10"]) == 0
        assert "All 1 experiments" in capsys.readouterr().out


class TestRunAllExperiments:
    def test_skip_subsets_the_registry(self):
        results = run_all_experiments(skip=["E4-E5", "E6", "E8", "E9", "FLEET"])
        assert [r.experiment_id for r in results] == ["E1-E3", "E7"]
        assert all(r.succeeded for r in results)

    def test_overrides_substitute_a_runner_without_mutating_registry(self):
        def stub(campaign=None):
            return ExperimentResult("FLEET", "stubbed", succeeded=True)

        skip = [i for i in ALL_IDS if i != "FLEET"]
        results = run_all_experiments(skip=skip, overrides={"FLEET": stub})
        assert [r.experiment_id for r in results] == ["FLEET"]
        assert results[0].title == "stubbed"
        assert runners.EXPERIMENT_RUNNERS["FLEET"] is runners.run_fleet_control

    def test_skip_everything_runs_nothing(self):
        assert run_all_experiments(skip=list(ALL_IDS)) == []

    def test_write_and_load_json_helpers(self, tmp_path):
        results = [ExperimentResult("EX", "title", rows=[{"a": 1}],
                                    notes=["n"], succeeded=True)]
        path = tmp_path / "out.json"
        write_json(results, path)
        loaded = load_json(path)
        assert len(loaded) == 1
        assert loaded[0].experiment_id == "EX"
        assert loaded[0].rows == [{"a": 1}]
        assert loaded[0].notes == ["n"]

    def test_keywords_are_skip_campaign_and_overrides(self):
        import inspect

        parameters = inspect.signature(run_all_experiments).parameters
        assert list(parameters) == ["skip", "campaign", "overrides"]

    @pytest.mark.parametrize("keyword, value", [
        ("backend", "serial"),
        ("jobs", 1),
        ("store", None),
        ("reuse", True),
    ])
    def test_removed_keyword_rejected(self, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            run_all_experiments(skip=list(ALL_IDS), **{keyword: value})


class TestExperimentAlone:
    """Each experiment, run alone in a fresh interpreter, exports exactly
    itself with its pinned rows: a registration or an import that only
    another experiment used to trigger shows up here."""

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_alone_exports_its_pinned_rows(self, tmp_path, experiment_id):
        pinned = json.loads(PAPER_ROWS.read_text(encoding="utf-8"))
        exported = tmp_path / "alone.json"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments", experiment_id,
             "--json", str(exported)],
            env=_cli_env(), capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stdout + completed.stderr
        entries = json.loads(exported.read_text(encoding="utf-8"))
        assert [entry["experiment_id"] for entry in entries] == [experiment_id]
        assert json.dumps(entries[0]["rows"]) == json.dumps(pinned[experiment_id])
