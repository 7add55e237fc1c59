"""Sweep artifacts, SWEEPS.md generation, and the drift check (tier-1)."""

from pathlib import Path

import pytest

from repro.sweep.engine import ConfigResult, SweepOutcome
from repro.sweep.report import (
    SWEEP_SCHEMA_VERSION,
    build_sweep_artifact,
    check_sweeps_drift,
    generate_sweeps_md,
    load_sweep_artifact,
    spec_digest,
    write_sweep_artifact,
)
from repro.sweep.spec import parse_spec

REPO_ROOT = Path(__file__).resolve().parents[2]

DEMO_TOML = (
    'name = "demo"\n'
    '[axes]\nline_bytes = [256, 512]\n'
    '[fixed]\nbenchmark = "126.gcc"\n'
)


def _spec(**overrides):
    table = {
        "name": "demo",
        "axes": {"line_bytes": [256, 512]},
        "fixed": {"benchmark": "126.gcc"},
    }
    table.update(overrides)
    return parse_spec(table)


def _outcome(spec=None):
    spec = spec or _spec()
    return SweepOutcome(
        spec=spec,
        configs=[
            ConfigResult(
                label="line_bytes=256",
                params={"benchmark": "126.gcc", "line_bytes": 256},
                metrics={"miss_rate": 0.02, "cpi": 1.4,
                         "bank_utilization": 0.10},
                dominated=True,
                dominated_by="line_bytes=512",
            ),
            ConfigResult(
                label="line_bytes=512",
                params={"benchmark": "126.gcc", "line_bytes": 512},
                metrics={"miss_rate": 0.01, "cpi": 1.2,
                         "bank_utilization": 0.05},
            ),
        ],
        failed=[],
    )


class TestArtifact:
    def test_schema_and_shape(self):
        artifact = build_sweep_artifact(_outcome())
        assert artifact["schema"] == SWEEP_SCHEMA_VERSION
        assert artifact["kind"] == "sweep"
        assert artifact["name"] == "demo"
        assert artifact["frontier"] == ["line_bytes=512"]
        assert artifact["configs"][0]["dominated_by"] == "line_bytes=512"

    def test_roundtrip(self, tmp_path):
        artifact = build_sweep_artifact(_outcome())
        path = tmp_path / "demo.json"
        write_sweep_artifact(path, artifact)
        assert load_sweep_artifact(path) == artifact

    def test_deterministic(self):
        assert build_sweep_artifact(_outcome()) == \
            build_sweep_artifact(_outcome())

    def test_no_code_fingerprint(self):
        # The artifact is a pure function of the spec, so SWEEPS.md
        # only churns when swept results change — never on unrelated
        # source edits.  A code fingerprint would break that.
        artifact = build_sweep_artifact(_outcome())
        assert "fingerprint" not in artifact

    def test_spec_digest_tracks_spec_content(self):
        assert spec_digest(_spec()) == spec_digest(_spec())
        assert spec_digest(_spec()) != spec_digest(
            _spec(axes={"line_bytes": [256, 1024]})
        )


class TestRendering:
    def test_deterministic(self):
        artifacts = [build_sweep_artifact(_outcome())]
        assert generate_sweeps_md(artifacts) == generate_sweeps_md(artifacts)

    def test_contains_verdicts_and_summary(self):
        text = generate_sweeps_md([build_sweep_artifact(_outcome())])
        assert text.startswith("# SWEEPS — design-space exploration")
        assert "## `demo` — base `figure7`" in text
        assert "dominated by `line_bytes=512`" in text
        assert "**frontier**" in text
        assert "Frontier: 1 of 2 configurations; 1 dominated." in text

    def test_no_timestamps(self):
        text = generate_sweeps_md([build_sweep_artifact(_outcome())])
        for fragment in ("202", "19:", "UTC"):
            assert fragment not in text

    def test_empty_registry_renders_placeholder(self):
        text = generate_sweeps_md([])
        assert "No sweep reports are checked in yet" in text

    def test_quarantined_configs_are_listed(self):
        outcome = _outcome()
        outcome.failed = ["line_bytes=1024"]
        text = generate_sweeps_md([build_sweep_artifact(outcome)])
        assert "Quarantined configurations" in text
        assert "`line_bytes=1024`" in text


class TestDrift:
    def test_checked_in_docs_are_in_sync(self):
        """The committed SWEEPS.md regenerates byte-identically from the
        committed sweep artifacts (scripts/check_docs.py runs this same
        check)."""
        if not (REPO_ROOT / "SWEEPS.md").exists():
            pytest.skip("SWEEPS.md not generated yet")
        assert check_sweeps_drift(REPO_ROOT) == []

    def _write_tree(self, root, artifact, doc_text):
        sweeps = root / "artifacts" / "sweeps"
        sweeps.mkdir(parents=True)
        (sweeps / "demo.toml").write_text(DEMO_TOML)
        write_sweep_artifact(sweeps / "demo.json", artifact)
        (root / "SWEEPS.md").write_text(doc_text)

    def test_in_sync_roundtrip(self, tmp_path):
        artifact = build_sweep_artifact(_outcome())
        self._write_tree(tmp_path, artifact, generate_sweeps_md([artifact]))
        assert check_sweeps_drift(tmp_path) == []

    def test_manual_edit_is_detected(self, tmp_path):
        artifact = build_sweep_artifact(_outcome())
        self._write_tree(
            tmp_path, artifact,
            generate_sweeps_md([artifact]) + "manual edit\n",
        )
        drift = check_sweeps_drift(tmp_path)
        assert drift and any("manual edit" in line for line in drift)

    def test_stale_spec_is_detected(self, tmp_path):
        # Editing the spec without rerunning the sweep must fail the
        # check even though SWEEPS.md still matches the old artifact.
        artifact = build_sweep_artifact(_outcome())
        self._write_tree(tmp_path, artifact, generate_sweeps_md([artifact]))
        (tmp_path / "artifacts" / "sweeps" / "demo.toml").write_text(
            DEMO_TOML.replace("512", "1024")
        )
        drift = check_sweeps_drift(tmp_path)
        assert drift and any("edited after" in line for line in drift)

    def test_orphan_artifact_is_detected(self, tmp_path):
        # A report whose spec is gone cannot be rerun or digest-checked.
        artifact = build_sweep_artifact(_outcome())
        self._write_tree(tmp_path, artifact, generate_sweeps_md([artifact]))
        (tmp_path / "artifacts" / "sweeps" / "demo.toml").unlink()
        drift = check_sweeps_drift(tmp_path)
        assert drift and any("no paired spec" in line for line in drift)

    def test_missing_doc_is_drift(self, tmp_path):
        sweeps = tmp_path / "artifacts" / "sweeps"
        sweeps.mkdir(parents=True)
        write_sweep_artifact(
            sweeps / "demo.json", build_sweep_artifact(_outcome())
        )
        assert check_sweeps_drift(tmp_path) != []
