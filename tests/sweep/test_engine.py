"""Sweep execution as registered experiments (tier-1, small grids)."""

import pytest

from repro.analysis import SPECS, run_experiments
from repro.common.errors import ConfigError
from repro.runner import ResultCache, TaskFailed
from repro.sweep import SweepReport, sweep_experiment
from repro.sweep.spec import parse_spec
from tests.failing_tasks import boom
from tests.sweep.test_cli import micro_section

TINY = {
    "name": "tiny",
    "axes": {"line_bytes": [256, 512], "num_banks": [4]},
    "fixed": {"benchmark": "126.gcc", "trace_len": 1500,
              "instructions": 400},
}


@pytest.fixture
def tiny(monkeypatch):
    """Register the TINY sweep as ``sweep:tiny`` for one test."""
    experiment = sweep_experiment(parse_spec(TINY))
    monkeypatch.setitem(SPECS, experiment.name, experiment)
    return experiment.name


class TestCompile:
    def test_one_task_per_configuration(self):
        tasks = sweep_experiment(parse_spec(TINY)).tasks()
        assert [t.label for t in tasks] == [
            "sweep:tiny/line_bytes=256,num_banks=4",
            "sweep:tiny/line_bytes=512,num_banks=4",
        ]
        assert tasks[0].kwargs == {**TINY["fixed"], "line_bytes": 256,
                                   "num_banks": 4}

    def test_overrides_are_refused(self):
        # The spec pins every parameter; a knob must not vanish silently.
        with pytest.raises(ConfigError, match="sweep:tiny takes no overrides"):
            sweep_experiment(parse_spec(TINY)).tasks({"trace_len": 10})

    def test_entry_point_resolves_for_slicing(self):
        # The module-level point function gives every task a dotted
        # entry point, which is what keys the dependency-slice fingerprint.
        experiment = sweep_experiment(parse_spec(TINY))
        assert experiment.entry_point == "repro.sweep.points.icache_point"
        for task in experiment.tasks():
            assert task.entry_point() == experiment.entry_point


class TestRun:
    def test_end_to_end_produces_metrics_and_verdicts(self, tiny):
        results, metrics = run_experiments([tiny])
        report = results[tiny]
        assert isinstance(report, SweepReport)
        configs = report.artifact["configs"]
        assert len(configs) == 2
        for config in configs:
            assert set(config["metrics"]) == {
                "miss_rate", "cpi", "bank_utilization"}
        assert len(report.artifact["frontier"]) >= 1
        assert len(metrics.tasks) == 2

    def test_second_run_is_all_cache_hits(self, tiny, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first_results, first = run_experiments([tiny], cache=cache)
        second_results, second = run_experiments([tiny], cache=cache)
        assert all(t.cache == "miss" for t in first.tasks)
        assert all(t.cache == "hit" for t in second.tasks)
        assert all(t.fingerprint_kind == "slice" for t in second.tasks)
        assert second_results == first_results

    def test_micro_renders_its_sweeps_md_section(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        results, _ = run_experiments(["sweep:micro"], cache=cache)
        assert results["sweep:micro"].render() == micro_section()
        _, again = run_experiments(["sweep:micro"], cache=cache)
        assert [t.cache for t in again.tasks] == ["hit"] * 4

    def test_failed_config_fails_the_sweep(self, tiny, fail_tasks):
        # A frontier classified over part of the grid is not the sweep's
        # result, so one failed configuration fails the whole run.
        fail_tasks("sweep:tiny/line_bytes=256*", boom)
        with pytest.raises(TaskFailed) as err:
            run_experiments([tiny])
        assert err.value.label == "sweep:tiny/line_bytes=256,num_banks=4"
        assert err.value.error_type == "Boom"

    def test_deterministic_across_runs(self, tiny):
        first, _ = run_experiments([tiny])
        second, _ = run_experiments([tiny])
        assert first == second
