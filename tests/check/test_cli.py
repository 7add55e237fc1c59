"""``python -m repro check`` CLI: selection, formats, exit codes."""

import json

import repro.__main__ as repro_main
from repro.check.cli import PASS_NAMES, main, run_check, select_passes
from repro.check.report import CheckReport, Finding, PassResult


class TestSelection:
    def test_default_selects_all_in_order(self):
        selected, unknown = select_passes(None, None)
        assert selected == list(PASS_NAMES)
        assert unknown == []

    def test_only_narrows(self):
        selected, unknown = select_passes("lints,protocol", None)
        assert selected == ["protocol", "lints"]  # declaration order
        assert unknown == []

    def test_skip_removes(self):
        selected, _ = select_passes(None, "gspn")
        assert selected == ["protocol", "lints", "deps", "units"]

    def test_unknown_names_reported_not_ignored(self):
        _, unknown = select_passes("protocol,nosuch", "bogus")
        assert unknown == ["bogus", "nosuch"]


class TestMain:
    def test_unknown_pass_exits_2(self, capsys):
        assert main(["--only", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown pass(es): nosuch" in err
        assert "known: protocol, gspn, lints, deps, units" in err

    def test_empty_selection_exits_2(self, capsys):
        assert main(["--skip", "protocol,gspn,lints,deps,units"]) == 2
        assert "selection is empty" in capsys.readouterr().err

    def test_json_format_parses(self, capsys):
        assert main(["--only", "lints", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in payload["passes"]] == ["lints"]
        assert payload["summary"]["ok"] is True
        assert payload["summary"]["errors"] == 0

    def test_text_format_has_summary_line(self, capsys):
        assert main(["--only", "lints"]) == 0
        out = capsys.readouterr().out
        assert "[lints] ok" in out
        assert "1 pass(es), 0 error(s)" in out

    def test_dispatch_from_repro_main(self, capsys):
        assert repro_main.main(["check", "--only", "lints"]) == 0
        assert "[lints] ok" in capsys.readouterr().out

    def test_experiment_cli_unaffected(self, capsys):
        assert repro_main.main(["list"]) == 0
        assert "table1" in capsys.readouterr().out


class TestFullSuite:
    def test_shipped_tree_passes_every_check(self):
        # The tier-1 self-check: protocol exhaustion, GSPN structural
        # analysis and lints all clean on the shipped sources.
        report = run_check()
        assert [p.name for p in report.passes] == list(PASS_NAMES)
        assert report.exit_code == 0, [f.render() for f in report.errors]

    def test_code_passes_report_nothing_on_the_shipped_tree(self):
        # Warnings included: a new deps, units or lints finding (or a
        # stale allow-comment) must be fixed or suppressed, not let
        # accumulate.
        report = run_check(["lints", "deps", "units"])
        assert report.findings == [], [f.render() for f in report.findings]


class TestReport:
    def _finding(self, severity="error"):
        return Finding("protocol", "single-writer", severity,
                       "nodes=2, blocks=1", "two writers",
                       ("node 0 issues a write of block 0",
                        "node 1 issues a write of block 0"))

    def test_error_sets_exit_code(self):
        report = CheckReport([PassResult("protocol", [self._finding()])])
        assert report.exit_code == 1

    def test_warnings_do_not_fail(self):
        report = CheckReport(
            [PassResult("gspn", [self._finding("warning")])]
        )
        assert report.exit_code == 0

    def test_render_includes_trace_steps(self):
        text = self._finding().render()
        assert "error[protocol/single-writer]" in text
        assert "counterexample trace:" in text
        assert "1. node 0 issues a write of block 0" in text

    def test_json_round_trips_trace(self):
        report = CheckReport([PassResult("protocol", [self._finding()])])
        payload = json.loads(report.to_json())
        finding = payload["passes"][0]["findings"][0]
        assert finding["rule"] == "single-writer"
        assert len(finding["trace"]) == 2
        assert payload["summary"]["ok"] is False
