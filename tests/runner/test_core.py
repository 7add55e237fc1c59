"""Task executor: jobs=1 vs jobs=N equality, caching, metrics."""

import json
import os

import pytest

from repro import obs
from repro.common import tally
from repro.obs import spans
from repro.runner import (
    METRICS_SCHEMA_VERSION,
    ResultCache,
    Task,
    run_tasks,
)


def _work(n=1, seed=0):
    # Deterministic in its arguments, like every experiment function.
    tally.add("gspn_firings", 10 * n)
    return sum((seed + i) ** 2 for i in range(n))


def _tasks():
    return [
        Task("demo", str(n), _work, {"n": n, "seed": n}) for n in (1, 2, 3, 4)
    ]


class TestRunTasks:
    def test_serial_parallel_equality(self):
        serial, _ = run_tasks(_tasks(), jobs=1)
        parallel, _ = run_tasks(_tasks(), jobs=3)
        assert serial == parallel

    def test_results_keyed_by_shard(self):
        results, _ = run_tasks(_tasks(), jobs=1)
        assert results[("demo", "2")] == _work(n=2, seed=2)

    def test_cache_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="c" * 64)
        first, m1 = run_tasks(_tasks(), jobs=1, cache=cache)
        assert m1.misses == 4 and m1.hits == 0
        second, m2 = run_tasks(_tasks(), jobs=2, cache=cache)
        assert m2.hits == 4 and m2.misses == 0
        assert first == second
        # Tallies survive the cache: hits report the original counts.
        assert m2.tallies_for("demo") == m1.tallies_for("demo")

    def test_fingerprint_change_forces_recompute(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="c" * 64)
        run_tasks(_tasks(), jobs=1, cache=old)
        new = ResultCache(tmp_path, fingerprint="d" * 64)
        _, metrics = run_tasks(_tasks(), jobs=1, cache=new)
        assert metrics.misses == 4

    def test_each_task_is_keyed_once(self, tmp_path, monkeypatch):
        # One fingerprint lookup per task serves its load, its store
        # and its metrics, cold and warm alike.
        calls = []
        lookup = ResultCache.fingerprint_for

        def counting(self, entry):
            calls.append(entry)
            return lookup(self, entry)

        monkeypatch.setattr(ResultCache, "fingerprint_for", counting)
        cache = ResultCache(tmp_path, fingerprint="c" * 64)
        tasks = _tasks()
        for expected in ("miss", "hit"):
            calls.clear()
            _, metrics = run_tasks(tasks, jobs=1, cache=cache)
            assert [t.cache for t in metrics.tasks] == [expected] * 4
            assert all(t.key for t in metrics.tasks)
            assert len(calls) == len(tasks)

    def test_metrics_order_and_tallies(self):
        _, metrics = run_tasks(_tasks(), jobs=2)
        assert [t.shard for t in metrics.tasks] == ["1", "2", "3", "4"]
        assert metrics.tallies_for("demo") == {"gspn_firings": 100}


class TestMetricsJSON:
    def test_schema(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="c" * 64)
        _, metrics = run_tasks(_tasks(), jobs=2, cache=cache)
        out = tmp_path / "metrics.json"
        metrics.write(out)
        data = json.loads(out.read_text())
        assert data["schema"] == METRICS_SCHEMA_VERSION
        assert data["jobs"] == 2
        assert data["fingerprint"] == "c" * 64
        assert data["cache_misses"] == 4
        assert "quarantined" not in data
        assert 0.0 <= data["utilization"] <= 1.0
        assert data["wall_s"] >= 0 and data["busy_s"] >= 0
        assert len(data["tasks"]) == 4
        for task in data["tasks"]:
            assert set(task) == {
                "experiment", "shard", "cache", "wall_s", "worker",
                "tallies", "key", "fingerprint_kind",
            }
            assert task["cache"] in ("hit", "miss", "off")
            assert task["fingerprint_kind"] in ("slice", "tree")
            assert task["tallies"] == {"gspn_firings": 10 * int(task["shard"])}

    def test_render_mentions_cache_and_jobs(self):
        _, metrics = run_tasks(_tasks(), jobs=1)
        text = metrics.render()
        assert "demo" in text
        assert "jobs=1" in text
        assert "utilization" in text


class TestSpanCollection:
    """Spans across the executor: every run collects its own, and every
    task contributes its spans exactly once, at any ``jobs``."""

    def test_stages_populated_when_tracing(self):
        with obs.collect() as records:
            _, metrics = run_tasks(_tasks(), jobs=1)
        assert set(metrics.stages) == {
            f"task/demo/{n}" for n in (1, 2, 3, 4)
        }
        stage = metrics.stages["task/demo/2"]
        assert stage["count"] == 1
        assert stage["counters"]["gspn_firings"] == 20
        assert metrics.to_json()["stages"]["task/demo/2"]["count"] == 1
        # The run's records also reach the enclosing collector.
        assert metrics.stages == obs.aggregate_stages(records)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stages_filled_without_session(self, jobs):
        # Nothing collects around the call; run_tasks collects its own.
        assert not spans._collectors
        _, metrics = run_tasks(_tasks(), jobs=jobs)
        assert not spans._collectors
        assert {
            name: (stage["count"], stage["counters"])
            for name, stage in metrics.to_json()["stages"].items()
        } == {
            f"task/demo/{n}": (1, {"gspn_firings": 10 * n})
            for n in (1, 2, 3, 4)
        }
        # Each computed task's metrics are read off its task span.
        with obs.collect() as records:
            _, metrics = run_tasks(_tasks(), jobs=jobs)
        by_name = {record.name: record for record in records}
        for task in metrics.tasks:
            record = by_name[f"task/demo/{task.shard}"]
            assert task.wall_s == record.dur_ns / 1e9
            assert task.worker == record.pid
            assert task.tallies == record.counters
            assert (task.worker == os.getpid()) == (jobs == 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pool_workers_ship_spans_back(self, jobs):
        with obs.collect() as records:
            _, metrics = run_tasks(_tasks(), jobs=jobs)
        assert sorted(
            r.name for r in records if r.name.startswith("task/")
        ) == ["task/demo/1", "task/demo/2", "task/demo/3", "task/demo/4"]
        assert metrics.stages["task/demo/3"]["counters"]["gspn_firings"] == 30

    def test_each_hit_is_served_under_its_own_span(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="c" * 64)
        _, cold = run_tasks(_tasks(), jobs=1, cache=cache)
        assert not any(name.startswith("cache/hit/") for name in cold.stages)
        with obs.collect() as records:
            _, warm = run_tasks(_tasks(), jobs=2, cache=cache)
        hits = {r.name: r for r in records if r.name.startswith("cache/hit/")}
        assert sorted(hits) == [f"cache/hit/demo/{n}" for n in (1, 2, 3, 4)]
        for task in warm.tasks:
            record = hits[f"cache/hit/demo/{task.shard}"]
            assert warm.stages[record.name]["count"] == 1
            # The stored tallies are the computing run's work, not this
            # run's: the hit's span carries none.
            assert record.counters == {}
            assert task.tallies == {"gspn_firings": 10 * int(task.shard)}
            assert task.wall_s == record.dur_ns / 1e9
            assert task.worker == record.pid == os.getpid()

    def test_warm_rerun_computes_no_slice(self, tmp_path):
        from repro.analysis import run_experiments

        computed = []
        for _ in range(2):  # a fresh cache each run, as a new process has
            _, metrics = run_experiments(["table1"],
                                         cache=ResultCache(tmp_path))
            keys = metrics.stages["runner/keys"]
            assert keys["count"] == 1
            computed.append(keys["counters"]["slices_computed"])
        assert metrics.hits == len(metrics.tasks)
        assert computed == [len(metrics.tasks), 0]
