import json
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import main
from repro.runner import METRICS_SCHEMA_VERSION, RunMetrics
from repro.sweep.cli import main as sweep_main
from tests.failing_tasks import boom, crash

REPO_ROOT = Path(__file__).resolve().parents[2]
MICRO_SWEEP = REPO_ROOT / "artifacts" / "sweeps" / "micro.toml"


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the CLI cache at a per-test directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


class EntryPoint:
    """A command that takes the shared run flags, with a task it runs."""

    def __init__(self, main, argv, label):
        self.main = main
        self.argv = argv
        self.label = label  # one task label the run launches

    def __call__(self, *flags):
        return self.main([*self.argv, *flags])


ENTRY_POINTS = {
    "repro": EntryPoint(main, ["all", "--only", "table1,figure2"], "table1"),
    "sweep": EntryPoint(
        sweep_main, ["run", str(MICRO_SWEEP), "--no-report"],
        "sweep:figure7/line_bytes=256,num_banks=4",
    ),
}


@pytest.fixture(params=list(ENTRY_POINTS))
def entry(request):
    """Each command that launches a supervised run."""
    return ENTRY_POINTS[request.param]


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

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["figures13-17", "--procs", "a"], "--procs",
                     id="procs-a"),
        pytest.param(["figures13-17", "--procs", "2,0"], "--procs",
                     id="procs-0"),
        pytest.param(["table4", "--trace-len", "-5"], "--trace-len",
                     id="trace-len-negative"),
    ])
    def test_bad_experiment_knob_rejected_at_parse_time(
            self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: expected a positive integer" \
            in capsys.readouterr().err


def _paper_check_helper():
    """``benchmarks/conftest.py``, loaded as a plain module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "benchmarks_conftest", REPO_ROOT / "benchmarks" / "conftest.py")
    helper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helper)
    return helper


class TestPaperChecksShareTheCLICache:
    def test_benchmark_helper_replays_what_the_cli_stored(
            self, capsys, tmp_path, monkeypatch):
        # benchmarks/ asserts the paper's claims on what its helper
        # returns; after `repro table1` that must be the CLI's cached
        # result, served under the same keys, with nothing stored anew.
        from repro.analysis import run_experiments
        from repro.analysis.docs import render_result

        cache = tmp_path / "cache"
        assert main(["table1", "--cache-dir", str(cache)]) == 0
        printed = capsys.readouterr().out
        stored = sorted(cache.rglob("*.pkl"))
        assert stored

        helper = _paper_check_helper()
        runs = []

        def recording(*args, **kwargs):
            results, metrics = run_experiments(*args, **kwargs)
            runs.append(metrics)
            return results, metrics

        monkeypatch.setattr(helper, "run_experiments", recording)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        result = helper.run_registered("table1")
        [metrics] = runs
        assert metrics.tasks
        assert {task.cache for task in metrics.tasks} == {"hit"}
        assert sorted(cache.rglob("*.pkl")) == stored
        assert render_result(result) in printed

    def test_benchmark_helper_raises_on_a_failed_shard(
            self, cache_dir, fail_tasks):
        # A paper claim checked on the merge of the healthy shards alone
        # could pass with data missing, so one failed shard fails the
        # helper instead of being quarantined.
        from repro.analysis import SPECS
        from repro.runner import FailFastError
        from tests.failing_tasks import Boom

        first = SPECS["table4"].shard_values[0]
        fail_tasks(f"table4/{first}", boom)
        with pytest.raises(FailFastError, match=Boom.__name__):
            _paper_check_helper().run_registered("table4")


class TestCLIObservability:
    @pytest.fixture(autouse=True)
    def reset_tracing(self):
        # --trace enables the process-global tracer; leave it the way
        # other tests expect it.
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
        assert data["wall_s"] > 0
        stages = data["stages"]
        assert stages
        for stage in stages.values():
            assert stage["count"] >= 1
            assert stage["wall_s"] >= 0
        # The simulated work is tallied: the section5.6 task spans count
        # the GSPN firings their CPI points took.
        assert any(name.startswith("task/section5.6/")
                   and stage["counters"].get("gspn_firings", 0) > 0
                   for name, stage in stages.items())

    def test_trace_and_metrics_together(
            self, capsys, cache_dir, tmp_path, entry):
        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.json"
        assert entry("--no-cache", "--trace", str(trace_out),
                     "--metrics-out", str(metrics_out)) == 0
        err = capsys.readouterr().err
        assert "trace written" in err and "metrics written" in err
        events = json.loads(trace_out.read_text())["traceEvents"]
        assert any(e["cat"] == "task" for e in events)
        stages = json.loads(metrics_out.read_text())["stages"]
        assert stages
        assert set(stages) <= {e["name"] for e in events}

    def test_retry_flag_removed(self, capsys, entry):
        # Every task is pure and seeded, so a retry could only repeat
        # the failure; each task gets one attempt and the flag is gone.
        with pytest.raises(SystemExit) as exc:
            entry("--max-retries", "1")
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-retries" \
            in capsys.readouterr().err

    def test_perf_summary_flag_removed(self, capsys, entry):
        # --perf-summary once wrote a second per-run record; the stages
        # rollup now rides in --metrics-out, and the flag is unknown.
        with pytest.raises(SystemExit) as exc:
            entry("--perf-summary")
        assert exc.value.code == 2
        assert "unrecognized arguments: --perf-summary" \
            in capsys.readouterr().err

    def test_no_tracing_means_no_stages(self, capsys, cache_dir, tmp_path):
        metrics_out = tmp_path / "metrics.json"
        assert main(["table1", "--metrics-out", str(metrics_out)]) == 0
        capsys.readouterr()
        assert json.loads(metrics_out.read_text())["stages"] == {}


class TestCLIFaultTolerance:
    def test_injected_crash_is_quarantined_with_nonzero_exit(
            self, capsys, cache_dir, tmp_path, fail_tasks):
        fail_tasks("table1", crash)
        out = tmp_path / "metrics.json"
        assert main([
            "table1", "--jobs", "2", "--metrics-out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "quarantined" in err
        data = json.loads(out.read_text())
        assert data["quarantined"] == 1
        [task] = [t for t in data["tasks"] if t["status"] == "quarantined"]
        assert task["failure"]["kind"] == "crash"

    def test_bad_timeout_rejected(self, capsys, cache_dir, entry):
        # inf would overflow selectors.select; nan would never expire.
        for timeout in ("0", "inf", "nan"):
            assert entry("--task-timeout", timeout) == 2
            assert "task_timeout must be finite and > 0" \
                in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_rejected(self, capsys, entry, jobs):
        with pytest.raises(SystemExit) as exc:
            entry("--jobs", jobs)
        assert exc.value.code == 2
        assert "argument --jobs/-j: expected a positive integer" \
            in capsys.readouterr().err

    def test_fail_fast_aborts(self, capsys, cache_dir, entry, fail_tasks):
        fail_tasks(entry.label, boom)
        assert entry("--fail-fast") == 1
        err = capsys.readouterr().err
        assert "fail-fast" in err and "rerun the same command" in err

    @pytest.mark.parametrize("flags", [
        pytest.param(["--resume"], id="resume"),
        pytest.param(["--inject", "x=raise"], id="inject"),
    ])
    def test_resume_and_inject_flags_removed(self, capsys, entry, flags):
        # A plain rerun serves every finished task from the cache, and
        # the tests make tasks fail for real, so both flags are gone.
        with pytest.raises(SystemExit) as exc:
            entry(*flags)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" \
            in capsys.readouterr().err

    def test_inject_env_var_is_ignored(self, capsys, cache_dir, monkeypatch,
                                       entry):
        monkeypatch.setenv("REPRO_INJECT", "*=raise")
        assert entry() == 0
        assert "quarantined" not in capsys.readouterr().err

    def test_interrupt_exits_130_with_partial_metrics(
            self, capsys, cache_dir, tmp_path, monkeypatch, entry):
        def interrupted(tasks, *, jobs, on_partial, **kwargs):
            on_partial(RunMetrics(jobs=jobs, fingerprint="partial"))
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.analysis.registry.run_tasks", interrupted)
        monkeypatch.setattr("repro.sweep.engine.run_tasks", interrupted)
        out = tmp_path / "metrics.json"
        assert entry("--metrics-out", str(out)) == 130
        assert "rerun the same command" in capsys.readouterr().err
        data = json.loads(out.read_text())
        assert data["schema"] == METRICS_SCHEMA_VERSION
        assert data["fingerprint"] == "partial"
