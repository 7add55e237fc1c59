"""Supervised executor: timeouts, quarantine, resume, faults.

Every fault here is injected through :mod:`repro.faults`, so the
failure scenarios are deterministic — no flaky sleeps or real
segfaults, and the healthy shards must stay byte-identical to a
fault-free run.
"""

import json
import math
import time

import pytest

from repro.faults import FaultPlan
from repro.runner import (
    FailFastError,
    ResultCache,
    RunJournal,
    SupervisionPolicy,
    Task,
    run_tasks,
    supervised_map,
)


def _work(n=1, seed=0):
    return sum((seed + i) ** 2 for i in range(n))


def _tasks():
    return [
        Task("demo", str(n), _work, {"n": n, "seed": n}) for n in (1, 2, 3, 4)
    ]


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
        clean, _ = run_tasks(_tasks(), jobs=1)
        faults = FaultPlan.parse(["demo/2=crash"])
        results, metrics = run_tasks(_tasks(), jobs=jobs, faults=faults)
        # The healthy shards are byte-identical to the fault-free run.
        assert ("demo", "2") not in results
        assert results == {k: v for k, v in clean.items() if k[1] != "2"}
        assert metrics.quarantined == 1
        [failed] = metrics.failures
        assert failed.shard == "2"
        assert failed.status == "quarantined"
        assert failed.failure["kind"] == "crash"

    def test_k_injected_faults_give_exactly_k_quarantines(self):
        clean, _ = run_tasks(_tasks(), jobs=1)
        faults = FaultPlan.parse(["demo/1=raise", "demo/4=crash"])
        results, metrics = run_tasks(_tasks(), jobs=2, faults=faults)
        assert metrics.quarantined == 2
        assert sorted(results) == [("demo", "2"), ("demo", "3")]
        assert all(results[k] == clean[k] for k in results)

    def test_exception_fault_records_type_and_traceback(self):
        faults = FaultPlan.parse(["demo/1=raise"])
        _, metrics = run_tasks(_tasks(), jobs=2, faults=faults)
        [failed] = metrics.failures
        assert failed.failure["error_type"] == "InjectedFault"
        assert "InjectedFault" in failed.failure["traceback"]
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
        faults = FaultPlan.parse(["demo/2=crash"])
        _, metrics = run_tasks(_tasks(), jobs=2, faults=faults)
        out = tmp_path / "metrics.json"
        metrics.write(out)
        data = json.loads(out.read_text())
        assert data["quarantined"] == 1
        [task] = [t for t in data["tasks"] if t["status"] == "quarantined"]
        assert task["failure"]["kind"] == "crash"
        assert task["failure"]["label"] == "demo/2"

    def test_render_lists_quarantined_shards(self):
        faults = FaultPlan.parse(["demo/2=crash"])
        _, metrics = run_tasks(_tasks(), jobs=2, faults=faults)
        lines = metrics.render().splitlines()
        assert "quarantined shards:" in lines
        assert lines[-1].startswith("  demo/2: crash — WorkerCrash: ")

    def test_fail_fast_aborts_the_sweep(self):
        faults = FaultPlan.parse(["demo/1=raise"])
        with pytest.raises(FailFastError) as err:
            run_tasks(
                _tasks(), jobs=1, faults=faults,
                policy=SupervisionPolicy(fail_fast=True),
            )
        assert err.value.failure.label == "demo/1"


class TestTimeout:
    def test_hung_worker_is_killed_and_quarantined(self):
        # demo/2 hangs (sleeps far beyond the timeout); the watchdog
        # must kill it and the other shards must still complete.
        clean, _ = run_tasks(_tasks(), jobs=1)
        faults = FaultPlan.parse(["demo/2=hang"])
        results, metrics = run_tasks(
            _tasks(), jobs=2, faults=faults,
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


class TestJournalResume:
    def test_resume_skips_journaled_shards(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 64)
        journal = RunJournal(tmp_path, "a" * 64)
        # "Interrupted" run: only the first two shards completed.
        run_tasks(_tasks()[:2], jobs=1, cache=cache, journal=journal)
        assert len(journal.completed()) == 2
        # Resume executes none of the journaled shards.
        results, metrics = run_tasks(
            _tasks(), jobs=1, cache=cache, journal=journal, resume=True
        )
        assert [t.cache for t in metrics.tasks] == \
            ["resumed", "resumed", "miss", "miss"]
        assert len(results) == 4

    def test_fresh_run_truncates_the_journal(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 64)
        journal = RunJournal(tmp_path, "a" * 64)
        run_tasks(_tasks(), jobs=1, cache=cache, journal=journal)
        assert len(journal.completed()) == 4
        run_tasks(_tasks()[:1], jobs=1, cache=cache, journal=journal)
        assert set(journal.completed()) == {"demo/1"}

    def test_stale_journal_from_old_code_never_matches(self, tmp_path):
        old_cache = ResultCache(tmp_path, fingerprint="a" * 64)
        old_journal = RunJournal(tmp_path, "a" * 64)
        run_tasks(_tasks(), jobs=1, cache=old_cache, journal=old_journal)
        # New code fingerprint: its journal is a different file, and the
        # old keys can never validate, so everything re-executes.
        new_cache = ResultCache(tmp_path, fingerprint="b" * 64)
        new_journal = RunJournal(tmp_path, "b" * 64)
        _, metrics = run_tasks(
            _tasks(), jobs=1, cache=new_cache, journal=new_journal,
            resume=True,
        )
        assert all(t.cache == "miss" for t in metrics.tasks)

    def test_quarantined_shard_is_journaled_and_retried_on_resume(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 64)
        journal = RunJournal(tmp_path, "a" * 64)
        faults = FaultPlan.parse(["demo/2=crash"])
        _, metrics = run_tasks(
            _tasks(), jobs=1, cache=cache, journal=journal, faults=faults,
        )
        assert metrics.quarantined == 1
        assert "demo/2" not in journal.completed()
        # Resume without the fault: only the quarantined shard runs.
        results, metrics2 = run_tasks(
            _tasks(), jobs=1, cache=cache, journal=journal, resume=True
        )
        assert metrics2.quarantined == 0 and len(results) == 4
        by_shard = {t.shard: t.cache for t in metrics2.tasks}
        assert by_shard["2"] == "miss"
        assert by_shard["1"] == by_shard["3"] == by_shard["4"] == "resumed"

    def test_torn_journal_line_is_skipped(self, tmp_path):
        journal = RunJournal(tmp_path, "a" * 64)
        journal.begin(resume=False)
        journal.record("demo/1", status="done", key="k1")
        with journal.path.open("a") as fh:
            fh.write('{"label": "demo/2", "status"')  # killed mid-write
        assert journal.completed() == {"demo/1": "k1"}


class TestKeyboardInterrupt:
    def test_interrupt_flushes_journal_and_partial_metrics(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 64)
        journal = RunJournal(tmp_path, "a" * 64)
        tasks = _tasks()[:2] + [Task("demo", "boom", _interrupt, {})]
        seen = []
        with pytest.raises(KeyboardInterrupt):
            run_tasks(
                tasks, jobs=1, cache=cache, journal=journal,
                on_partial=seen.append,
            )
        # Both completed shards are journaled, cached, and in the
        # partial metrics handed to on_partial before the re-raise.
        assert set(journal.completed()) == {"demo/1", "demo/2"}
        [partial] = seen
        assert [t.shard for t in partial.tasks] == ["1", "2"]
        # And the interrupted run resumes cleanly.
        results, metrics = run_tasks(
            _tasks(), jobs=1, cache=cache, journal=journal, resume=True
        )
        assert len(results) == 4
        assert [t.cache for t in metrics.tasks] == \
            ["resumed", "resumed", "miss", "miss"]


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
