"""Tests for experiment-report persistence."""

import json

import pytest

from repro.analysis.experiments import ExperimentReport, suite_stages
from repro.analysis.figures import FigureData
from repro.analysis.store import load_report, save_report
from repro.analysis.tables import TableData
from tests.conftest import SUITE_TEST_PARAMS


def _report():
    report = ExperimentReport()
    table = TableData(title="T", columns=["A", "B"])
    table.rows.append(["x", 1])
    report.tables["table1"] = table
    figure = FigureData(title="F", x_label="x", y_label="y")
    figure.add_series("s", [(0.0, 0.0), (1.0, 0.5)])
    report.figures["figure1"] = figure
    report.findings["metric"] = 0.42
    report.findings["countries"] = ["IR", "SY"]
    return report


class TestRoundtrip:
    def test_findings_preserved(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(_report(), path)
        loaded = load_report(path)
        assert loaded.findings["metric"] == 0.42
        assert loaded.findings["countries"] == ["IR", "SY"]

    def test_tables_preserved(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(_report(), path)
        loaded = load_report(path)
        table = loaded.tables["table1"]
        assert table.title == "T"
        assert table.columns == ["A", "B"]
        assert table.rows == [["x", 1]]

    def test_figures_preserved(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(_report(), path)
        loaded = load_report(path)
        figure = loaded.figures["figure1"]
        assert figure.series["s"] == [(0.0, 0.0), (1.0, 0.5)]

    def test_rendering_survives_roundtrip(self, tmp_path):
        path = tmp_path / "report.json"
        original = _report()
        save_report(original, path)
        loaded = load_report(path)
        assert loaded.to_markdown() == original.to_markdown()

    def test_validation_works_on_loaded(self, tmp_path):
        from repro.analysis.validation import validate_findings
        path = tmp_path / "report.json"
        report = ExperimentReport()
        report.findings["top10k.gt_precision"] = 1.0
        save_report(report, path)
        results = validate_findings(load_report(path).findings)
        assert results and results[0].passed


class TestErrors:
    def test_bad_version(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_report(path)

    def test_empty_report(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(ExperimentReport(), path)
        loaded = load_report(path)
        assert not loaded.tables
        assert not loaded.figures


class TestStageStats:
    def test_stage_stats_roundtrip(self, tmp_path):
        report = _report()
        report.stage_stats["top10k"] = [
            {"stage": "initial-scan", "seconds": 1.5, "probes": 900,
             "cache_hit": False, "artifacts": 3, "records": 900,
             "workers_spawned": 2, "worker_pack_loads": 1,
             "worker_page_lengths": 148, "freeze_failures": 1},
        ]
        report.stage_stats["suite"] = [
            {"stage": "cloudflare-rules", "seconds": 0.01, "probes": 0,
             "cache_hit": True, "artifacts": 3, "records": 0},
        ]
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded.stage_stats == report.stage_stats
        assert list(loaded.stage_stats) == ["top10k", "suite"]
        scan = loaded.stage_stats["top10k"][0]
        assert (scan["worker_page_lengths"], scan["freeze_failures"]) == \
            (148, 1)

    def test_suite_run_stage_stats_roundtrip(self, tiny_suite, tmp_path):
        """A real suite's JSON shows every study's stages, suite included."""
        report = tiny_suite[0]
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded = load_report(path)
        assert list(loaded.stage_stats) == ["top10k", "top1m", "suite"]
        assert [e["stage"] for e in loaded.stage_stats["suite"]] == \
            [stage.name for stage in suite_stages(**SUITE_TEST_PARAMS)]
        assert loaded.stage_stats == report.stage_stats
        for entries in loaded.stage_stats.values():
            for entry in entries:
                assert entry["worker_page_lengths"] >= 0
                assert entry["freeze_failures"] == 0
        assert loaded.to_markdown() == report.to_markdown()

    def test_reports_without_stage_stats_load(self, tmp_path):
        """Files written before stage_stats existed must still load."""
        path = tmp_path / "report.json"
        save_report(_report(), path)
        payload = json.loads(path.read_text())
        del payload["stage_stats"]
        path.write_text(json.dumps(payload))
        assert load_report(path).stage_stats == {}

    def test_stage_stats_absent_from_rendered_output(self, tmp_path):
        report = _report()
        report.stage_stats["top10k"] = [
            {"stage": "initial-scan", "seconds": 1.5, "probes": 900,
             "cache_hit": False, "artifacts": 3, "records": 900},
        ]
        assert "initial-scan" not in report.to_markdown()
        assert "initial-scan" not in report.to_text()


class TestAtomicSave:
    def test_no_temp_files_left_behind(self, tmp_path):
        save_report(_report(), tmp_path / "report.json")
        assert [p.name for p in tmp_path.iterdir()
                if ".tmp." in p.name] == []

    def test_failed_save_preserves_existing_file(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(_report(), path)
        before = path.read_bytes()
        bad = _report()
        bad.findings["unserializable"] = object()
        with pytest.raises(TypeError):
            save_report(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()
                if ".tmp." in p.name] == []
