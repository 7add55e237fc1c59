"""Sweep execution through the supervised runner (tier-1, small grids)."""

import pytest

from repro.runner import ResultCache, TaskFailed
from repro.sweep.engine import compile_tasks, run_sweep
from repro.sweep.spec import parse_spec
from tests.failing_tasks import boom

TINY = {
    "name": "tiny",
    "axes": {"line_bytes": [256, 512], "num_banks": [4]},
    "fixed": {"benchmark": "126.gcc", "trace_len": 1500,
              "instructions": 400},
}


def tiny_spec(**overrides):
    table = dict(TINY)
    table.update(overrides)
    return parse_spec(table)


class TestCompile:
    def test_one_task_per_configuration(self):
        tasks = compile_tasks(tiny_spec())
        assert len(tasks) == 2
        assert {t.label for t in tasks} == {
            "sweep:figure7/line_bytes=256,num_banks=4",
            "sweep:figure7/line_bytes=512,num_banks=4",
        }

    def test_experiment_name_is_base_not_sweep(self):
        # Cache keys must not depend on the sweep's own name, so two
        # sweeps sharing a configuration collapse to one cached result.
        tasks = compile_tasks(tiny_spec(name="renamed"))
        assert all(t.experiment == "sweep:figure7" for t in tasks)

    def test_entry_point_resolves_for_slicing(self):
        # The module-level point function gives every task a dotted
        # entry point, which is what keys the dependency-slice fingerprint.
        for task in compile_tasks(tiny_spec()):
            assert task.entry_point() == "repro.sweep.points.icache_point"


class TestRun:
    def test_end_to_end_produces_metrics_and_verdicts(self):
        outcome, metrics = run_sweep(tiny_spec())
        assert len(outcome.configs) == 2
        for result in outcome.configs:
            assert set(result.metrics) == {
                "miss_rate", "cpi", "bank_utilization"}
        assert len(outcome.frontier) >= 1
        assert len(metrics.tasks) == 2

    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first_outcome, first = run_sweep(tiny_spec(), cache=cache)
        second_outcome, second = run_sweep(tiny_spec(), cache=cache)
        assert all(t.cache == "miss" for t in first.tasks)
        assert all(t.cache == "hit" for t in second.tasks)
        assert all(t.fingerprint_kind == "slice" for t in second.tasks)
        assert [c.metrics for c in second_outcome.configs] == [
            c.metrics for c in first_outcome.configs
        ]

    def test_configs_collapse_across_sweeps(self, tmp_path):
        # A differently-named sweep whose grid overlaps reuses the
        # cached results of the shared configurations.
        cache = ResultCache(tmp_path / "cache")
        run_sweep(tiny_spec(), cache=cache)
        overlapping = tiny_spec(
            name="other",
            axes={"line_bytes": [256, 512, 1024], "num_banks": [4]},
        )
        _, metrics = run_sweep(overlapping, cache=cache)
        by_shard = {t.shard: t.cache for t in metrics.tasks}
        assert by_shard["line_bytes=256,num_banks=4"] == "hit"
        assert by_shard["line_bytes=512,num_banks=4"] == "hit"
        assert by_shard["line_bytes=1024,num_banks=4"] == "miss"

    def test_failed_config_fails_the_sweep(self, fail_tasks):
        # A frontier classified over part of the grid is not the sweep's
        # result, so one failed configuration fails the whole run.
        fail_tasks("sweep:figure7/line_bytes=256*", boom)
        with pytest.raises(TaskFailed) as err:
            run_sweep(tiny_spec())
        assert err.value.label == "sweep:figure7/line_bytes=256,num_banks=4"
        assert err.value.error_type == "Boom"

    def test_deterministic_across_runs(self):
        first, _ = run_sweep(tiny_spec())
        second, _ = run_sweep(tiny_spec())
        assert [c.metrics for c in first.configs] == [
            c.metrics for c in second.configs
        ]


class TestSpans:
    def test_sweep_stages_are_traced(self):
        from repro import obs

        with obs.collect() as records:
            run_sweep(tiny_spec())
        names = {record.name for record in records}
        assert {"sweep/compile", "sweep/run", "sweep/reduce"} <= names
