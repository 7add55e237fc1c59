"""Parallel task executor for experiments.

A :class:`Task` is one self-contained unit of work: a picklable
module-level callable plus keyword arguments.  Sharded experiments
(e.g. the 18 Spec benchmarks of Table 3, or the five SPLASH kernels of
Figures 13-17) contribute one task per shard, so independent pieces
spread across the worker pool.

Execution contract, which makes ``--jobs N`` byte-identical to
``--jobs 1``:

- tasks never share mutable state — every experiment seeds its own RNGs
  from explicit constants (see :mod:`repro.common.rng`);
- results are collected as workers finish but reported in submission
  order;
- with ``jobs=1`` everything runs inline in this process (no pool, same
  code path for cache and metrics).

Execution is **supervised** (see :mod:`repro.runner.resilience`): a
task that crashes, hangs past the :class:`SupervisionPolicy` timeout or
raises is *quarantined* after its one attempt — recorded in
:class:`RunMetrics` with its failure kind, exception type, traceback
and worker pid — while every other task still completes and caches.
Completed tasks are journaled under the cache root (see
:mod:`repro.runner.journal`) so an interrupted sweep resumes instead of
recomputing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.common import tally
from repro.faults import FaultPlan
from repro.runner.cache import ResultCache, canonical_kwargs
from repro.runner.journal import (
    STATUS_DONE,
    STATUS_QUARANTINED,
    RunJournal,
)
from repro.runner.metrics import RunMetrics, TaskMetrics
from repro.runner.resilience import (
    FailFastError,
    SupervisionPolicy,
    TaskOutcome,
    supervised_map,
)


@dataclass(frozen=True)
class Task:
    """One schedulable unit: ``fn(**kwargs)``, labelled for reporting."""

    experiment: str
    shard: str  # "" for unsharded experiments
    fn: Callable
    kwargs: dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.experiment}/{self.shard}" if self.shard else self.experiment

    def call_id(self) -> str:
        return f"experiment:{self.label}"

    def entry_point(self) -> str | None:
        """Dotted name of ``fn`` for fingerprint slicing, or None.

        None (e.g. for a partial or a closure, which have no useful
        static identity) makes the cache fall back to the whole-tree
        fingerprint.
        """
        module = getattr(self.fn, "__module__", None)
        qualname = getattr(self.fn, "__qualname__", None)
        if not module or not qualname or "<" in qualname:
            return None
        return f"{module}.{qualname}"


def _execute(task: Task) -> tuple[Any, float, dict[str, int], int]:
    """Worker entry point: run one task, measure wall time and tallies."""
    before = tally.snapshot()
    started = time.perf_counter()  # repro: allow(wall-clock)
    with obs.span(f"task/{task.label}"):
        result = task.fn(**task.kwargs)
    wall = time.perf_counter() - started  # repro: allow(wall-clock)
    return result, wall, tally.since(before), os.getpid()


def run_tasks(
    tasks: list[Task],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    policy: SupervisionPolicy | None = None,
    faults: FaultPlan | None = None,
    journal: RunJournal | None = None,
    resume: bool = False,
    on_partial: Callable[[RunMetrics], None] | None = None,
) -> tuple[dict[tuple[str, str], Any], RunMetrics]:
    """Run tasks, via the cache where possible, across ``jobs`` workers.

    Returns ``(results, metrics)`` where ``results`` maps
    ``(experiment, shard)`` to the task's return value and ``metrics``
    lists one record per task in submission order.  A quarantined task
    (one that failed under ``policy``) has **no** entry in ``results``;
    its failure is recorded in ``metrics`` instead.

    ``journal``/``resume``: completed tasks are journaled as they
    settle; with ``resume=True`` tasks the journal marks done are
    served from the cache without re-execution (the journal is keyed by
    code fingerprint and cache key, so stale journals never match).

    On ``KeyboardInterrupt`` the workers are terminated, the journal
    stays flushed, and ``on_partial`` (if given) receives the metrics
    for everything that settled before the interrupt — then the
    interrupt re-raises, leaving the sweep cleanly resumable.
    """
    started = time.perf_counter()  # repro: allow(wall-clock)
    spans_before = obs.mark()
    policy = policy or SupervisionPolicy()
    metrics = RunMetrics(
        jobs=max(1, jobs),
        fingerprint=cache.fingerprint if cache else "",
    )
    results: dict[tuple[str, str], Any] = {}
    records: dict[tuple[str, str], TaskMetrics] = {}
    pending: list[Task] = []

    if journal is not None:
        journal.begin(resume=resume)
    journaled = journal.completed() if (journal is not None and resume) else {}

    for task in tasks:
        slot = (task.experiment, task.shard)
        if cache is not None:
            digest, kind = cache.fingerprint_for(task.entry_point())
            key = cache.key(task.call_id(), task.kwargs,
                            entry=task.entry_point())
            t0 = time.perf_counter()  # repro: allow(wall-clock)
            entry = cache.load(key)
            if entry is not None:
                resumed = journaled.get(task.label) == key
                results[slot] = entry.result
                records[slot] = TaskMetrics(
                    experiment=task.experiment,
                    shard=task.shard,
                    cache="resumed" if resumed else "hit",
                    wall_s=time.perf_counter() - t0,  # repro: allow(wall-clock)
                    worker=os.getpid(),
                    tallies=dict(entry.meta.get("tallies", {})),
                    key=key,
                    fingerprint_kind=kind,
                )
                if journal is not None and not resumed:
                    journal.record(task.label, status=STATUS_DONE, key=key)
                continue
        pending.append(task)

    def record_miss(task: Task, result: Any, wall: float,
                    tallies: dict[str, int], worker: int) -> None:
        slot = (task.experiment, task.shard)
        key = ""
        kind = ""
        if cache is not None:
            digest, kind = cache.fingerprint_for(task.entry_point())
            key = cache.key(task.call_id(), task.kwargs,
                            entry=task.entry_point())
            cache.store(key, result, {
                "call_id": task.call_id(),
                "kwargs": canonical_kwargs(task.kwargs),
                "fingerprint": digest,
                "fingerprint_kind": kind,
                "wall_s": wall,
                "tallies": tallies,
            })
        results[slot] = result
        records[slot] = TaskMetrics(
            experiment=task.experiment,
            shard=task.shard,
            cache="miss" if cache is not None else "off",
            wall_s=wall,
            worker=worker,
            tallies=tallies,
            key=key,
            fingerprint_kind=kind,
        )
        if journal is not None:
            journal.record(task.label, status=STATUS_DONE, key=key)

    def record_quarantine(task: Task, outcome: TaskOutcome) -> None:
        slot = (task.experiment, task.shard)
        key = cache.key(task.call_id(), task.kwargs,
                        entry=task.entry_point()) if cache else ""
        failure = outcome.failure
        assert failure is not None
        records[slot] = TaskMetrics(
            experiment=task.experiment,
            shard=task.shard,
            cache="miss" if cache is not None else "off",
            wall_s=outcome.wall_s,
            worker=failure.worker,
            key=key,
            status=STATUS_QUARANTINED,
            failure=failure.to_json(),
        )
        if journal is not None:
            journal.record(task.label, status=STATUS_QUARANTINED, key=key)

    def on_done(index: int, outcome: TaskOutcome) -> None:
        task = pending[index]
        if outcome.ok:
            result, wall, tallies, worker = outcome.result
            record_miss(task, result, wall, tallies, worker)
        else:
            record_quarantine(task, outcome)

    def finalize() -> None:
        metrics.tasks = [
            records[(t.experiment, t.shard)] for t in tasks
            if (t.experiment, t.shard) in records
        ]
        metrics.wall_s = time.perf_counter() - started  # repro: allow(wall-clock)
        if obs.enabled():
            # Per-stage timing rollup of every span this run produced
            # (workers' spans were absorbed as their tasks settled).
            metrics.stages = obs.aggregate_stages(obs.since(spans_before))

    try:
        if pending:
            supervised_map(
                _execute,
                pending,
                labels=[task.label for task in pending],
                jobs=jobs,
                policy=policy,
                faults=faults,
                on_done=on_done,
            )
    except (KeyboardInterrupt, FailFastError):
        # Workers are already terminated and every settled task is
        # journaled/cached; hand the partial metrics out and re-raise
        # so the caller can report and the user can `--resume`.
        finalize()
        if on_partial is not None:
            on_partial(metrics)
        raise

    finalize()
    return results, metrics
