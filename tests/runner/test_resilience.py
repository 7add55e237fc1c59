"""Supervised executor: a failed task fails the run, and a rerun resumes.

Every failure here is real: the failing shard's task raises or calls
``os._exit`` (see :mod:`tests.failing_tasks`).  The run must raise
:class:`TaskFailed` naming the shard and the exception type, and a
rerun with the shard fixed must serve every task the failed run stored.
"""

from dataclasses import replace

import pytest

from repro.runner import ResultCache, Task, TaskFailed, run_tasks, supervised_map
from tests.failing_tasks import boom, crash


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


def _refuse_to_load(label):
    raise ValueError(f"{label} cannot be rebuilt here")


class _Unloadable:
    """Pickles fine in the worker; raises while the parent unpickles it."""

    def __reduce__(self):
        return _refuse_to_load, ("demo/bad",)


def _unloadable():
    return _Unloadable()


def _fail_then_rerun(tmp_path, fns, jobs):
    """Run with ``fns`` failing, then rerun fixed on the same cache.

    The failed run must raise :class:`TaskFailed`; the rerun must give
    the fault-free results and serve exactly the entries the failed run
    stored.  Returns the error, the stored count and the rerun metrics.
    """
    cache = ResultCache(tmp_path, fingerprint="a" * 64)
    with pytest.raises(TaskFailed) as err:
        run_tasks(_failing(fns), jobs=jobs, cache=cache)
    stored = len(list(tmp_path.rglob("*.pkl")))
    clean, _ = run_tasks(_tasks(), jobs=1)
    results, rerun = run_tasks(_tasks(), jobs=jobs, cache=cache)
    assert results == clean
    assert rerun.hits == stored
    assert rerun.misses == len(rerun.tasks) - stored
    return err.value, stored, rerun


class TestFailedShard:
    """A failed shard is kept out of the cache and fails the run.

    There is no retry: the one attempt is all a shard gets.  Every task
    that finished before the failure is stored, so a plain rerun with
    the shard fixed recomputes only what is missing.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_shard_fails_the_run(
            self, tmp_path, jobs):
        # A crash needs a worker process to die in; inline, shard 3
        # raises instead.
        fail, error_type = (crash, "WorkerCrash") if jobs > 1 else (boom, "Boom")
        err, stored, rerun = _fail_then_rerun(tmp_path, {"3": fail}, jobs)
        assert err.label == "demo/3"
        assert err.error_type == error_type
        assert str(err).startswith(f"demo/3: {error_type}: ")
        if fail is crash:
            assert "exited with code 73" in err.message
        else:
            # Inline, exactly the shards ahead of the failure finished.
            assert stored == 2
        assert rerun.tasks[2].cache == "miss"

    def test_exception_fault_records_type_and_traceback(self, tmp_path):
        err, _, _ = _fail_then_rerun(tmp_path, {"1": boom}, jobs=2)
        assert err.label == "demo/1"
        assert err.error_type == "Boom"
        assert err.message == "task failed on purpose"
        assert "Boom" in err.traceback
        assert str(err).startswith("demo/1: Boom: task failed on purpose")

    def test_plain_rerun_recomputes_only_the_failed_shard(
            self, tmp_path):
        # Inline, the last shard fails after the other three are
        # stored, so the rerun recomputes that shard alone.
        _, stored, rerun = _fail_then_rerun(tmp_path, {"4": boom}, jobs=1)
        assert stored == 3
        assert [t.cache for t in rerun.tasks] == ["hit", "hit", "hit", "miss"]


class TestFailedTaskFailsTheRun:
    def test_inline_failure_chains_the_original_exception(self):
        with pytest.raises(TaskFailed) as err:
            run_tasks(_failing({"1": boom}), jobs=1)
        assert type(err.value.__cause__).__name__ == "Boom"

    def test_result_that_fails_to_unpickle_names_its_task(self):
        # The worker pickles the result fine; the parent's unpickle
        # raises.  That is a typed failure naming the task.
        tasks = _tasks() + [Task("demo", "bad", _unloadable, {})]
        with pytest.raises(TaskFailed) as err:
            run_tasks(tasks, jobs=2)
        assert err.value.label == "demo/bad"
        assert err.value.error_type == "ValueError"
        assert "failed to unpickle" in err.value.message
        assert "demo/bad cannot be rebuilt here" in err.value.message


class TestKeyboardInterrupt:
    def test_interrupt_then_rerun_hits(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 64)
        tasks = _tasks()[:2] + [Task("demo", "boom", _interrupt, {})]
        with pytest.raises(KeyboardInterrupt):
            run_tasks(tasks, jobs=1, cache=cache)
        # A plain rerun serves the two finished shards from the cache
        # and runs the rest.
        results, metrics = run_tasks(_tasks(), jobs=1, cache=cache)
        assert len(results) == 4
        assert [t.cache for t in metrics.tasks] == \
            ["hit", "hit", "miss", "miss"]


class TestSupervisedMap:
    def test_outcomes_in_input_order(self):
        assert supervised_map(
            _probe, [3, 1, 2], labels=["a", "b", "c"], jobs=2,
        ) == [9, 1, 4]

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ValueError):
            supervised_map(_probe, [1, 2], labels=["only-one"])

    def test_on_done_fires_for_every_item(self):
        done = []
        supervised_map(
            _probe, [1, 2, 3], labels=["a", "b", "c"], jobs=2,
            on_done=lambda i, result: done.append((i, result)),
        )
        assert sorted(done) == [(0, 1), (1, 4), (2, 9)]


def _probe(n):
    return n * n
