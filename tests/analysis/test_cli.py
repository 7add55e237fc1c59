import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.runner import METRICS_SCHEMA_VERSION


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the CLI cache at a per-test directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out
        assert "figures13-17" in out
        assert "Section" in out  # paper references are shown

    def test_unknown_experiment(self, capsys):
        # "serve" once named a subcommand; it is an unknown name now.
        for name in ("bogus", "serve"):
            assert main([name]) == 2
            assert f"unknown experiment(s): {name}" in capsys.readouterr().err

    def test_run_table1(self, capsys, cache_dir):
        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "SparcStation-5" in captured.out
        assert "[table1:" in captured.err

    def test_run_with_trace_len(self, capsys, cache_dir):
        assert main(["section5.6", "--trace-len", "15000"]) == 0
        assert "bank-count" in capsys.readouterr().out

    def test_procs_warns_when_not_applicable(self, capsys, cache_dir):
        # figure2 ignores --procs: the run still succeeds, but the flag
        # is called out instead of being silently dropped.
        assert main(["figure2", "--procs", "1"]) == 0
        captured = capsys.readouterr()
        assert "Figure 2" in captured.out
        assert "--procs" in captured.err
        assert "no effect" in captured.err

    def test_trace_len_warns_when_not_applicable(self, capsys, cache_dir):
        assert main(["table1", "--trace-len", "5000"]) == 0
        err = capsys.readouterr().err
        assert "--trace-len" in err and "no effect" in err

    def test_unknown_only_rejected(self, capsys):
        assert main(["all", "--only", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_empty_selection_rejected(self, capsys):
        assert main(["table1", "--skip", "table1"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_only_and_skip_filter(self, capsys, cache_dir):
        assert main([
            "all", "--only", "table1,figure2", "--skip", "figure2",
        ]) == 0
        captured = capsys.readouterr()
        assert "SparcStation-5" in captured.out
        assert "Figure 2" not in captured.out

    def test_cache_round_trip_and_no_cache(self, capsys, cache_dir):
        assert main(["table1"]) == 0
        first = capsys.readouterr()
        assert "0/1 cached" in first.err
        assert main(["table1"]) == 0
        second = capsys.readouterr()
        assert "1/1 cached" in second.err
        assert second.out == first.out  # byte-identical rendered tables
        assert main(["table1", "--no-cache"]) == 0
        third = capsys.readouterr()
        assert "cache off" in third.err
        assert third.out == first.out

    def test_metrics_out(self, capsys, cache_dir, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(["table1", "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["schema"] == METRICS_SCHEMA_VERSION
        assert data["tasks"][0]["experiment"] == "table1"
        assert data["quarantined"] == 0

    def test_jobs_flag_parses(self, capsys, cache_dir):
        assert main(["table1", "--jobs", "2", "--no-cache"]) == 0
        assert "SparcStation-5" in capsys.readouterr().out

    def test_docs_rejects_partial_selection(self, capsys):
        assert main(["docs", "--only", "table1"]) == 2
        assert "docs" in capsys.readouterr().err


class TestCLIObservability:
    @pytest.fixture(autouse=True)
    def reset_tracing(self):
        # --trace/--perf-summary enable the process-global tracer; leave
        # it the way other tests expect it.
        yield
        obs.disable()
        obs.reset()

    def test_trace_emits_chrome_trace_for_every_layer(
            self, capsys, cache_dir, tmp_path):
        trace_out = tmp_path / "trace.json"
        assert main([
            "section5.6", "--trace-len", "8000", "--no-cache",
            "--trace", str(trace_out),
        ]) == 0
        assert "trace written" in capsys.readouterr().err
        doc = json.loads(trace_out.read_text())
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert set(event) >= {"name", "cat", "ts", "pid", "tid"}
        cats = {event["cat"] for event in events}
        # Every modeling layer this experiment exercises shows up.
        assert {"task", "gspn", "cache", "trace"} <= cats
        depths = {e["name"]: e for e in events}
        assert any(n.startswith("gspn/run/") for n in depths)
        assert any(n.startswith("task/section5.6/") for n in depths)

    def test_perf_summary_written_and_parseable(
            self, capsys, cache_dir, tmp_path):
        bench_out = tmp_path / "bench.json"
        assert main([
            "section5.6", "--trace-len", "8000", "--no-cache",
            "--perf-summary", str(bench_out),
        ]) == 0
        assert "perf summary" in capsys.readouterr().err
        bench = json.loads(bench_out.read_text())
        assert bench["schema"] == 1
        assert bench["kind"] == "bench"
        assert bench["events"] > 0
        assert bench["events_per_sec"] > 0
        assert bench["stages"]
        for stage in bench["stages"].values():
            assert stage["count"] >= 1
            assert stage["wall_s"] >= 0

    def test_metrics_include_stages_when_tracing(
            self, capsys, cache_dir, tmp_path):
        metrics_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "trace.json"
        assert main([
            "section5.6", "--trace-len", "8000", "--no-cache",
            "--trace", str(trace_out), "--metrics-out", str(metrics_out),
        ]) == 0
        capsys.readouterr()
        data = json.loads(metrics_out.read_text())
        assert data["schema"] == METRICS_SCHEMA_VERSION
        assert any(name.startswith("task/section5.6/")
                   for name in data["stages"])

    def test_no_tracing_means_no_stages(self, capsys, cache_dir, tmp_path):
        metrics_out = tmp_path / "metrics.json"
        assert main(["table1", "--metrics-out", str(metrics_out)]) == 0
        capsys.readouterr()
        assert json.loads(metrics_out.read_text())["stages"] == {}


class TestCLIFaultTolerance:
    def test_injected_crash_is_quarantined_with_nonzero_exit(
            self, capsys, cache_dir, tmp_path):
        out = tmp_path / "metrics.json"
        assert main([
            "table1", "--inject", "table1=crash", "--max-retries", "0",
            "--metrics-out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "quarantined" in err
        data = json.loads(out.read_text())
        assert data["quarantined"] == 1
        [task] = [t for t in data["tasks"] if t["status"] == "quarantined"]
        assert task["failure"]["kind"] == "crash"

    def test_injected_crash_recovers_with_a_retry(self, capsys, cache_dir):
        assert main([
            "table1", "--inject", "table1=crash:1", "--max-retries", "1",
        ]) == 0
        assert "SparcStation-5" in capsys.readouterr().out

    def test_resume_serves_journaled_shards(self, capsys, cache_dir, tmp_path):
        assert main(["table1"]) == 0
        first = capsys.readouterr()
        out = tmp_path / "metrics.json"
        assert main(["table1", "--resume", "--metrics-out", str(out)]) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # byte-identical rendered tables
        data = json.loads(out.read_text())
        assert [t["cache"] for t in data["tasks"]] == ["resumed"]

    def test_resume_requires_the_cache(self, capsys):
        assert main(["table1", "--resume", "--no-cache"]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_bad_inject_rejected(self, capsys):
        assert main(["table1", "--inject", "table1=explode"]) == 2
        assert "inject" in capsys.readouterr().err.lower()

    def test_bad_timeout_rejected(self, capsys, cache_dir):
        assert main(["table1", "--task-timeout", "0"]) == 2
        assert "task_timeout" in capsys.readouterr().err

    def test_fail_fast_aborts(self, capsys, cache_dir):
        assert main([
            "all", "--only", "table1,figure2", "--inject", "table1=raise",
            "--max-retries", "0", "--fail-fast",
        ]) == 1
        err = capsys.readouterr().err
        assert "fail-fast" in err and "--resume" in err
