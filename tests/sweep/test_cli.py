"""The `python -m repro sweep` verbs, end to end on tiny grids."""

import json

import pytest

from repro.sweep.cli import main as sweep_main

SPEC = """\
name = "clidemo"
base = "figure7"
description = "CLI test sweep"

[axes]
line_bytes = [256, 512]

[fixed]
benchmark = "126.gcc"
trace_len = 1500
instructions = 400
"""


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "clidemo.toml"
    path.write_text(SPEC)
    return path


class TestRun:
    def test_run_writes_report_and_metrics(self, spec_path, tmp_path,
                                           capsys):
        report = tmp_path / "report.json"
        metrics = tmp_path / "metrics.json"
        status = sweep_main([
            "run", str(spec_path),
            "--no-cache",
            "--report-out", str(report),
            "--metrics-out", str(metrics),
        ])
        assert status == 0
        artifact = json.loads(report.read_text())
        assert artifact["kind"] == "sweep"
        assert artifact["name"] == "clidemo"
        assert len(artifact["configs"]) == 2
        run_metrics = json.loads(metrics.read_text())
        assert len(run_metrics["tasks"]) == 2
        out = capsys.readouterr().out
        assert "frontier" in out

    def test_second_run_hits_cache(self, spec_path, tmp_path):
        cache = tmp_path / "cache"
        args = ["run", str(spec_path), "--cache-dir", str(cache),
                "--no-report"]
        assert sweep_main(args) == 0
        metrics = tmp_path / "metrics.json"
        assert sweep_main(args + ["--metrics-out", str(metrics)]) == 0
        data = json.loads(metrics.read_text())
        assert all(t["cache"] == "hit" for t in data["tasks"])
        assert all(t["fingerprint_kind"] == "slice" for t in data["tasks"])

    def test_invalid_spec_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('name = "bad"\nbase = "figure99"\n'
                       '[axes]\nline_bytes = [256]\n')
        assert sweep_main(["run", str(bad), "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown-base" in err

    def test_missing_spec_is_usage_error(self, capsys):
        assert sweep_main(["run", "no-such-sweep", "--no-cache"]) == 2

    def test_quarantine_exits_nonzero(self, spec_path, capsys):
        status = sweep_main([
            "run", str(spec_path), "--no-cache", "--no-report",
            "--inject", "sweep:figure7/line_bytes=256*=raise",
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "quarantined" in out

    def test_resume_without_cache_is_usage_error(self, spec_path, capsys):
        assert sweep_main([
            "run", str(spec_path), "--no-cache", "--resume",
        ]) == 2


class TestReportAndList:
    def test_report_regenerates_doc(self, tmp_path, monkeypatch,
                                    spec_path):
        monkeypatch.chdir(tmp_path)
        # No artifacts at all: still writes a (placeholder) document.
        out = tmp_path / "SWEEPS.md"
        assert sweep_main(["report", "--out", str(out)]) == 0
        assert "No sweep reports" in out.read_text()

    def test_list_names_checked_in_sweeps(self, capsys):
        assert sweep_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "micro" in out
        assert "fig7-line-bank" in out
