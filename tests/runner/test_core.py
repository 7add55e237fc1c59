"""Task executor: jobs=1 vs jobs=N equality, caching, metrics."""

import json

import pytest

from repro import obs
from repro.common import tally
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


def _span_then_raise():
    with obs.span("demo/inner"):
        tally.add("gspn_firings", 5)
        raise RuntimeError("fails after opening a span")


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
        # One fingerprint lookup per task serves its load, its store or
        # quarantine record, and its metrics, cold and warm alike.
        from tests.failing_tasks import boom

        calls = []
        lookup = ResultCache.fingerprint_for

        def counting(self, entry):
            calls.append(entry)
            return lookup(self, entry)

        monkeypatch.setattr(ResultCache, "fingerprint_for", counting)
        cache = ResultCache(tmp_path, fingerprint="c" * 64)
        tasks = [*_tasks(), Task("bad", "", boom)]
        for expected in ("miss", "hit"):
            calls.clear()
            _, metrics = run_tasks(tasks, jobs=1, cache=cache)
            assert [t.cache for t in metrics.tasks] == [expected] * 4 + ["miss"]
            assert metrics.quarantined == 1
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
        assert data["quarantined"] == 0
        assert 0.0 <= data["utilization"] <= 1.0
        assert data["wall_s"] >= 0 and data["busy_s"] >= 0
        assert len(data["tasks"]) == 4
        for task in data["tasks"]:
            assert set(task) == {
                "experiment", "shard", "cache", "wall_s", "worker",
                "tallies", "key", "status", "fingerprint_kind",
            }
            assert task["cache"] in ("hit", "miss", "off")
            assert task["fingerprint_kind"] in ("slice", "tree")
            assert task["status"] == "ok"
            assert task["tallies"] == {"gspn_firings": 10 * int(task["shard"])}

    def test_render_mentions_cache_and_jobs(self):
        _, metrics = run_tasks(_tasks(), jobs=1)
        text = metrics.render()
        assert "demo" in text
        assert "jobs=1" in text
        assert "utilization" in text


class TestSpanCollection:
    """Tracing across the executor: every successful task contributes
    its spans exactly once, and a failed task none, at any ``jobs``."""

    @pytest.fixture(autouse=True)
    def tracing(self):
        obs.enable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def _task_spans(self):
        return sorted(
            r.name for r in obs.records() if r.name.startswith("task/")
        )

    def test_stages_populated_when_tracing(self):
        _, metrics = run_tasks(_tasks(), jobs=1)
        assert set(metrics.stages) == {
            f"task/demo/{n}" for n in (1, 2, 3, 4)
        }
        stage = metrics.stages["task/demo/2"]
        assert stage["count"] == 1
        assert stage["counters"]["gspn_firings"] == 20
        assert metrics.to_json()["stages"]["task/demo/2"]["count"] == 1

    def test_stages_empty_when_disabled(self):
        obs.disable()
        _, metrics = run_tasks(_tasks(), jobs=1)
        assert metrics.stages == {}
        assert metrics.to_json()["stages"] == {}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pool_workers_ship_spans_back(self, jobs):
        _, metrics = run_tasks(_tasks(), jobs=jobs)
        assert self._task_spans() == [
            "task/demo/1", "task/demo/2", "task/demo/3", "task/demo/4"
        ]
        assert metrics.stages["task/demo/3"]["counters"]["gspn_firings"] == 30

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_task_spans_are_dropped(self, jobs):
        # A pooled task's spans die with its worker; inline, they must be
        # rolled back, or jobs=1 would report spans jobs=2 never sees.
        tasks = _tasks() + [Task("demo", "boom", _span_then_raise, {})]
        _, metrics = run_tasks(tasks, jobs=jobs)
        [failed] = metrics.failures
        assert failed.shard == "boom"
        assert failed.failure["error_type"] == "RuntimeError"
        assert self._task_spans() == [
            "task/demo/1", "task/demo/2", "task/demo/3", "task/demo/4"
        ]
        assert not any(r.name == "demo/inner" for r in obs.records())
        assert "task/demo/boom" not in metrics.stages
