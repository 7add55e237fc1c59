"""Sweeps through the one launcher: ``python -m repro sweep:<name>``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis import run_experiments
from repro.analysis.docs import write_docs
from repro.analysis.registry import PAPER, SPECS
from repro.sweep import SweepSpecError, register_sweeps
from tests.failing_tasks import boom

REPO_ROOT = Path(__file__).resolve().parents[2]


def micro_section() -> str:
    """The ``micro`` section of the checked-in SWEEPS.md."""
    doc = (REPO_ROOT / "SWEEPS.md").read_text()
    start = doc.index("## `micro`")
    return doc[start:doc.index("\n\n## ", start)]


class TestRun:
    def test_run_writes_report_and_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["sweep:micro", "--no-cache",
                     "--metrics-out", str(metrics)]) == 0
        # The report is the sweep's SWEEPS.md section, on stdout.
        assert capsys.readouterr().out == micro_section() + "\n"
        tasks = json.loads(metrics.read_text())["tasks"]
        assert [t["experiment"] for t in tasks] == ["sweep:micro"] * 4

    def test_second_run_hits_cache(self, tmp_path):
        args = ["sweep:micro", "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        metrics = tmp_path / "metrics.json"
        assert main(args + ["--metrics-out", str(metrics)]) == 0
        data = json.loads(metrics.read_text())
        assert all(t["cache"] == "hit" for t in data["tasks"])
        assert all(t["fingerprint_kind"] == "slice" for t in data["tasks"])

    def test_missing_spec_is_usage_error(self, capsys):
        assert main(["sweep:no-such-sweep", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment(s): sweep:no-such-sweep" in err
        assert "sweep:micro" in err  # the known names are listed

    def test_failed_config_exits_1_without_report(self, capsys, fail_tasks):
        fail_tasks("sweep:micro/line_bytes=256*", boom)
        assert main(["sweep:micro", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "task sweep:micro/line_bytes=256,num_banks=4 failed: Boom" \
            in captured.err

    def test_malformed_spec_fails_at_registration(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('name = "bad"\nbase = "figure99"\n'
                       '[axes]\nline_bytes = [256]\n')
        with pytest.raises(SweepSpecError) as excinfo:
            register_sweeps(tmp_path)
        assert excinfo.value.rule == "unknown-field"
        assert str(bad) in str(excinfo.value)
        assert "sweep:bad" not in SPECS

    def test_all_selects_no_sweep(self, capsys):
        assert len(PAPER) == 11
        assert not any(name.startswith("sweep:") for name in PAPER)
        assert {"sweep:micro", "sweep:fig7-line-bank"} <= set(SPECS)
        assert main(["all", "--only", "sweep:micro"]) == 2
        assert "selection is empty" in capsys.readouterr().err


class TestReportAndList:
    def test_report_regenerates_doc(self, tmp_path):
        # The docs step writes each sweep's artifact beside --artifacts
        # and SWEEPS.md beside --docs-out; the micro artifact is the
        # checked-in one, byte for byte.
        results, metrics = run_experiments(["table1", "sweep:micro"])
        artifacts = tmp_path / "out" / "experiments.json"
        doc = tmp_path / "EXPERIMENTS.md"
        written = write_docs(results, metrics, "0" * 64, artifacts, doc)
        micro = tmp_path / "out" / "sweeps" / "micro.json"
        assert written == [artifacts, doc, micro, tmp_path / "SWEEPS.md"]
        assert micro.read_bytes() == \
            (REPO_ROOT / "artifacts" / "sweeps" / "micro.json").read_bytes()
        assert micro_section() in (tmp_path / "SWEEPS.md").read_text()
        records = json.loads(artifacts.read_text())["results"]
        assert [r["name"] for r in records] == ["table1"]

    def test_list_names_checked_in_sweeps(self, tmp_path):
        # Specs are found from the source tree, not the working directory.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "repro", "list"], cwd=tmp_path, env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        names = [line.split()[0] for line in out.splitlines()]
        assert names[:len(PAPER)] == list(PAPER)
        assert {"sweep:micro", "sweep:fig7-line-bank"} <= set(names)
