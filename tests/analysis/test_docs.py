"""EXPERIMENTS.md generation and the drift check (tier-1)."""

from pathlib import Path

import pytest

from repro.analysis import docs
from repro.sweep.report import generate_sweeps_md

REPO_ROOT = Path(__file__).resolve().parents[2]


def _fake_artifacts():
    return {
        "schema": docs.ARTIFACTS_SCHEMA_VERSION,
        "fingerprint": "ab" * 32,
        "results": [
            {
                "name": "table1",
                "paper_ref": "Table 1 / Section 2",
                "summary": "demo summary",
                "modules": ["repro.machines"],
                "tasks": 1,
                "tallies": {},
                "rendered": "Table 1: demo\nrow",
            },
            {
                "name": "section5.6",
                "paper_ref": "Section 5.6",
                "summary": "bank sweep",
                "modules": ["repro.gspn"],
                "tasks": 4,
                "tallies": {"gspn_firings": 1234},
                "rendered": "banks",
            },
        ],
    }


class TestGeneration:
    def test_deterministic(self):
        artifacts = _fake_artifacts()
        assert docs.generate_experiments_md(
            artifacts
        ) == docs.generate_experiments_md(artifacts)

    def test_contains_sections_and_footer(self):
        text = docs.generate_experiments_md(_fake_artifacts())
        assert text.startswith("# EXPERIMENTS — paper vs measured")
        assert "## Table 1 / Section 2 — `table1`" in text
        assert "Table 1: demo" in text
        assert "## Run metadata" in text
        assert "`abababababababab`" in text  # fingerprint prefix
        assert "1,234" in text  # tallies make the footer table
        assert "wall_s" not in text  # timing never enters the document

    def test_no_timestamps(self):
        # Nothing date-like may enter the document: determinism is what
        # makes the zero-diff check possible.
        text = docs.generate_experiments_md(_fake_artifacts())
        for fragment in ("202", "19:", "UTC"):
            assert fragment not in text

    def test_artifacts_roundtrip(self, tmp_path):
        artifacts = _fake_artifacts()
        path = tmp_path / "artifacts" / "experiments.json"
        docs.write_artifacts(path, artifacts)
        assert docs.load_artifacts(path) == artifacts


class TestDrift:
    def test_checked_in_docs_are_in_sync(self):
        """The committed EXPERIMENTS.md regenerates byte-identically from
        the committed artifacts (scripts/check_docs.py runs this same
        check)."""
        if not (REPO_ROOT / docs.DEFAULT_ARTIFACTS_PATH).exists():
            pytest.skip("artifacts not generated yet")
        assert docs.check_drift(REPO_ROOT) == []

    def test_drift_is_detected(self, tmp_path):
        artifacts = _fake_artifacts()
        (tmp_path / "artifacts").mkdir()
        docs.write_artifacts(tmp_path / "artifacts" / "experiments.json",
                             artifacts)
        (tmp_path / "EXPERIMENTS.md").write_text(
            docs.generate_experiments_md(artifacts) + "manual edit\n"
        )
        diff = docs.check_drift(tmp_path)
        assert diff and any("manual edit" in line for line in diff)

    def test_in_sync_roundtrip(self, tmp_path):
        artifacts = _fake_artifacts()
        (tmp_path / "artifacts").mkdir()
        docs.write_artifacts(tmp_path / "artifacts" / "experiments.json",
                             artifacts)
        (tmp_path / "EXPERIMENTS.md").write_text(
            docs.generate_experiments_md(artifacts)
        )
        # The one drift check covers SWEEPS.md too: with no sweep
        # artifacts checked in, it is the placeholder document.
        (tmp_path / "SWEEPS.md").write_text(generate_sweeps_md([]))
        assert docs.check_drift(tmp_path) == []
