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
Every task whose key is already in the cache is served from it, so
rerunning an interrupted run recomputes only the tasks it did not
finish.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.common import tally
from repro.runner.cache import ResultCache, canonical_kwargs, entry_key
from repro.runner.metrics import STATUS_QUARANTINED, RunMetrics, TaskMetrics
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
    on_partial: Callable[[RunMetrics], None] | None = None,
) -> tuple[dict[tuple[str, str], Any], RunMetrics]:
    """Run tasks, via the cache where possible, across ``jobs`` workers.

    Returns ``(results, metrics)`` where ``results`` maps
    ``(experiment, shard)`` to the task's return value and ``metrics``
    lists one record per task in submission order.  A quarantined task
    (one that failed under ``policy``) has **no** entry in ``results``;
    its failure is recorded in ``metrics`` instead.

    Each task is stored in the cache the moment it settles.  On
    ``KeyboardInterrupt`` the workers are terminated and ``on_partial``
    (if given) receives the metrics for everything that settled before
    the interrupt — then the interrupt re-raises.  Calling again with
    the same tasks and cache serves the settled ones as hits.
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
    # (key, digest, kind) per task, derived once and reused by the
    # load, the store and the metrics record.
    keys: dict[tuple[str, str], tuple[str, str, str]] = {}
    pending: list[Task] = []

    for task in tasks:
        slot = (task.experiment, task.shard)
        if cache is not None:
            digest, kind = cache.fingerprint_for(task.entry_point())
            key = entry_key(task.call_id(), task.kwargs, digest)
            keys[slot] = (key, digest, kind)
            t0 = time.perf_counter()  # repro: allow(wall-clock)
            entry = cache.load(key)
            if entry is not None:
                results[slot] = entry.result
                records[slot] = TaskMetrics(
                    experiment=task.experiment,
                    shard=task.shard,
                    cache="hit",
                    wall_s=time.perf_counter() - t0,  # repro: allow(wall-clock)
                    worker=os.getpid(),
                    tallies=dict(entry.meta.get("tallies", {})),
                    key=key,
                    fingerprint_kind=kind,
                )
                continue
        pending.append(task)

    def record_miss(task: Task, result: Any, wall: float,
                    tallies: dict[str, int], worker: int) -> None:
        slot = (task.experiment, task.shard)
        key, digest, kind = keys.get(slot, ("", "", ""))
        if cache is not None:
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

    def record_quarantine(task: Task, outcome: TaskOutcome) -> None:
        slot = (task.experiment, task.shard)
        key = keys.get(slot, ("",))[0]
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
                on_done=on_done,
            )
    except (KeyboardInterrupt, FailFastError):
        # Workers are already terminated and every settled task is
        # cached; hand the partial metrics out and re-raise so the
        # caller can report and a rerun can pick up the rest.
        finalize()
        if on_partial is not None:
            on_partial(metrics)
        raise

    finalize()
    return results, metrics
