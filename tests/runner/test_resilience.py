"""Supervised executor: timeouts, crash detection, quarantine, interrupts.

Every failure here is real: the failing shard's task calls
``os._exit``, sleeps past the timeout or raises (see
:mod:`tests.failing_tasks`), and the healthy shards must stay
byte-identical to a run where nothing fails.
"""

import json
import math
import time
from dataclasses import replace

import pytest

from repro.runner import (
    FailFastError,
    ResultCache,
    SupervisionPolicy,
    Task,
    run_tasks,
    supervised_map,
)
from tests.failing_tasks import boom, crash, hang


def _work(n=1, seed=0):
    return sum((seed + i) ** 2 for i in range(n))


def _tasks():
    return [
        Task("demo", str(n), _work, {"n": n, "seed": n}) for n in (1, 2, 3, 4)
    ]


def _failing(fns):
    """``_tasks()`` with each shard named in ``fns`` running ``fns[shard]``."""
    return [replace(task, fn=fns.get(task.shard, task.fn))
            for task in _tasks()]


def _interrupt(n=0):
    raise KeyboardInterrupt


def _sleepy(duration=30.0):
    time.sleep(duration)
    return duration


def _refuse_to_load(label):
    raise ValueError(f"{label} cannot be rebuilt here")


class _Unloadable:
    """Pickles fine in the worker; raises while the parent unpickles it."""

    def __reduce__(self):
        return _refuse_to_load, ("demo/bad",)


def _unloadable():
    return _Unloadable()


class TestQuarantine:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_retries_quarantine_only_that_shard(self, jobs):
        # A crash needs a worker process to die in; inline, shard 2
        # raises instead.
        fail, kind = (crash, "crash") if jobs > 1 else (boom, "exception")
        clean, _ = run_tasks(_tasks(), jobs=1)
        results, metrics = run_tasks(_failing({"2": fail}), jobs=jobs)
        # The healthy shards are byte-identical to the fault-free run.
        assert ("demo", "2") not in results
        assert results == {k: v for k, v in clean.items() if k[1] != "2"}
        assert metrics.quarantined == 1
        [failed] = metrics.failures
        assert failed.shard == "2"
        assert failed.status == "quarantined"
        assert failed.failure["kind"] == kind

    def test_k_injected_faults_give_exactly_k_quarantines(self):
        clean, _ = run_tasks(_tasks(), jobs=1)
        results, metrics = run_tasks(_failing({"1": boom, "4": crash}), jobs=2)
        assert metrics.quarantined == 2
        assert sorted(results) == [("demo", "2"), ("demo", "3")]
        assert all(results[k] == clean[k] for k in results)
        kinds = {t.shard: t.failure["kind"] for t in metrics.failures}
        assert kinds == {"1": "exception", "4": "crash"}

    def test_exception_fault_records_type_and_traceback(self):
        _, metrics = run_tasks(_failing({"1": boom}), jobs=2)
        [failed] = metrics.failures
        assert failed.failure["kind"] == "exception"
        assert failed.failure["error_type"] == "Boom"
        assert failed.failure["message"] == "task failed on purpose"
        assert "Boom" in failed.failure["traceback"]
        assert failed.failure["worker"] > 0

    def test_result_that_fails_to_unpickle_is_quarantined(self):
        # The worker pickles the result fine; the parent's unpickle
        # raises.  That is a typed exception-kind failure naming the
        # task, and the healthy shards still complete.
        clean, _ = run_tasks(_tasks(), jobs=1)
        tasks = _tasks() + [Task("demo", "bad", _unloadable, {})]
        results, metrics = run_tasks(tasks, jobs=2)
        assert results == clean
        [failed] = metrics.failures
        assert failed.shard == "bad"
        assert failed.failure["kind"] == "exception"
        assert failed.failure["label"] == "demo/bad"
        assert failed.failure["error_type"] == "ValueError"
        assert "failed to unpickle" in failed.failure["message"]
        assert "demo/bad cannot be rebuilt here" in failed.failure["message"]

    def test_metrics_json_carries_the_failure(self, tmp_path):
        _, metrics = run_tasks(_failing({"2": crash}), jobs=2)
        out = tmp_path / "metrics.json"
        metrics.write(out)
        data = json.loads(out.read_text())
        assert data["quarantined"] == 1
        [task] = [t for t in data["tasks"] if t["status"] == "quarantined"]
        assert task["failure"]["kind"] == "crash"
        assert task["failure"]["label"] == "demo/2"
        assert "exited with code 73" in task["failure"]["message"]

    def test_render_lists_quarantined_shards(self):
        _, metrics = run_tasks(_failing({"2": crash}), jobs=2)
        lines = metrics.render().splitlines()
        assert "quarantined shards:" in lines
        assert lines[-1].startswith("  demo/2: crash — WorkerCrash: ")

    def test_fail_fast_aborts_the_sweep(self):
        with pytest.raises(FailFastError) as err:
            run_tasks(
                _failing({"1": boom}), jobs=1,
                policy=SupervisionPolicy(fail_fast=True),
            )
        assert err.value.failure.label == "demo/1"

    def test_plain_rerun_recomputes_only_the_quarantined_shard(
            self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 64)
        _, metrics = run_tasks(_failing({"2": boom}), jobs=1, cache=cache)
        assert metrics.quarantined == 1
        # A quarantined shard stores nothing, so the same call with
        # the shard fixed runs it and serves the rest from the cache.
        results, rerun = run_tasks(_tasks(), jobs=1, cache=cache)
        assert rerun.quarantined == 0 and len(results) == 4
        assert [t.cache for t in rerun.tasks] == ["hit", "miss", "hit", "hit"]


class TestTimeout:
    def test_hung_worker_is_killed_and_quarantined(self):
        # demo/2 hangs (sleeps far beyond the timeout); the watchdog
        # must kill it and the other shards must still complete.
        clean, _ = run_tasks(_tasks(), jobs=1)
        results, metrics = run_tasks(
            _failing({"2": hang}), jobs=2,
            policy=SupervisionPolicy(task_timeout=0.5),
        )
        [failed] = metrics.failures
        assert failed.failure["kind"] == "timeout"
        assert failed.failure["worker"] > 0
        assert results == {k: v for k, v in clean.items() if k[1] != "2"}

    def test_genuinely_slow_task_times_out(self):
        tasks = [Task("slow", "1", _sleepy, {"duration": 30.0}),
                 Task("slow", "2", _work, {"n": 2})]
        results, metrics = run_tasks(
            tasks, jobs=2,
            policy=SupervisionPolicy(task_timeout=0.5),
        )
        [failed] = metrics.failures
        assert failed.shard == "1" and failed.failure["kind"] == "timeout"
        assert results[("slow", "2")] == _work(n=2)


class TestKeyboardInterrupt:
    def test_interrupt_partial_metrics_then_rerun_hits(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 64)
        tasks = _tasks()[:2] + [Task("demo", "boom", _interrupt, {})]
        seen = []
        with pytest.raises(KeyboardInterrupt):
            run_tasks(tasks, jobs=1, cache=cache, on_partial=seen.append)
        # Both completed shards are in the partial metrics handed to
        # on_partial before the re-raise.
        [partial] = seen
        assert [t.shard for t in partial.tasks] == ["1", "2"]
        # A plain rerun serves them from the cache and runs the rest.
        results, metrics = run_tasks(_tasks(), jobs=1, cache=cache)
        assert len(results) == 4
        assert [t.cache for t in metrics.tasks] == \
            ["hit", "hit", "miss", "miss"]


class TestSupervisedMap:
    def test_outcomes_in_input_order(self):
        outcomes = supervised_map(
            _probe, [3, 1, 2], labels=["a", "b", "c"], jobs=2,
        )
        assert [o.result for o in outcomes] == [9, 1, 4]
        assert [o.label for o in outcomes] == ["a", "b", "c"]

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ValueError):
            supervised_map(_probe, [1, 2], labels=["only-one"])

    def test_on_done_fires_for_every_item(self):
        done = []
        supervised_map(
            _probe, [1, 2, 3], labels=["a", "b", "c"], jobs=2,
            on_done=lambda i, o: done.append(i),
        )
        assert sorted(done) == [0, 1, 2]


def _probe(n):
    return n * n


class TestPolicyValidation:
    def test_bad_values_rejected(self):
        for timeout in (0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and > 0"):
                SupervisionPolicy(task_timeout=timeout)
