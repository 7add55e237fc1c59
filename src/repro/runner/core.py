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
task that raises, or whose worker crashes, fails the run with
:class:`~repro.runner.resilience.TaskFailed`.  Every task is stored in
the cache as it finishes, and every task whose key is already there is
served from it, so rerunning a failed or interrupted run recomputes
only the tasks it did not finish.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.runner.cache import (
    CacheEntry,
    ResultCache,
    canonical_kwargs,
    entry_key,
)
from repro.runner.metrics import RunMetrics, TaskMetrics
from repro.runner.resilience import supervised_map


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


def _execute(task: Task) -> tuple[Any, obs.SpanRecord]:
    """Worker entry point: run one task under its ``task/<label>`` span.

    Returns the result and that span's record, which carries the task's
    wall time, worker pid and tally deltas.
    """
    with obs.collect() as spans, obs.span(f"task/{task.label}"):
        result = task.fn(**task.kwargs)
    return result, spans[-1]


def _serve(cache: ResultCache, task: Task,
           key: str) -> tuple[CacheEntry, obs.SpanRecord] | None:
    """Load ``task``'s entry under a ``cache/hit/<label>`` span.

    Returns the entry and that span's record, or None on a miss, whose
    span is dropped.  The span carries no counters: the entry's stored
    tallies are work of the run that computed it, not of this one.
    """
    with obs.collect() as spans:
        with obs.span(f"cache/hit/{task.label}"):
            entry = cache.load(key)
        if entry is None:
            spans.clear()  # before the collector hands its records on
            return None
    return entry, spans[-1]


def run_tasks(
    tasks: list[Task],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> tuple[dict[tuple[str, str], Any], RunMetrics]:
    """Run tasks, via the cache where possible, across ``jobs`` workers.

    Returns ``(results, metrics)`` where ``results`` maps
    ``(experiment, shard)`` to the task's return value and ``metrics``
    lists one record per task in submission order.

    Each task is stored in the cache the moment it finishes.  A failed
    task raises :class:`~repro.runner.resilience.TaskFailed` and a
    ``KeyboardInterrupt`` re-raises, after the live workers are
    terminated; calling again with the same tasks and cache serves the
    finished ones as hits.

    With a cache, the run's keys are derived under one ``runner/keys``
    span, whose ``slices_computed`` counter says how many entry points
    the slicer had to analyse, and each hit is served under its own
    ``cache/hit/<label>`` span.
    """
    started = time.perf_counter()  # repro: allow(wall-clock)
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

    def on_done(index: int, outcome: tuple) -> None:
        task = pending[index]
        result, record = outcome
        wall = record.dur_ns / 1e9
        tallies = dict(record.counters)
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
            worker=record.pid,
            tallies=tallies,
            key=key,
            fingerprint_kind=kind,
        )

    with obs.collect() as spans:
        if cache is not None:
            with obs.span("runner/keys", slices_computed=0):
                for task in tasks:
                    digest, kind = cache.fingerprint_for(task.entry_point())
                    key = entry_key(task.call_id(), task.kwargs, digest)
                    keys[(task.experiment, task.shard)] = (key, digest, kind)
        for task in tasks:
            slot = (task.experiment, task.shard)
            key, _, kind = keys.get(slot, ("", "", ""))
            hit = _serve(cache, task, key) if cache is not None else None
            if hit is None:
                pending.append(task)
                continue
            entry, record = hit
            results[slot] = entry.result
            records[slot] = TaskMetrics(
                experiment=task.experiment,
                shard=task.shard,
                cache="hit",
                wall_s=record.dur_ns / 1e9,
                worker=record.pid,
                tallies=dict(entry.meta.get("tallies", {})),
                key=key,
                fingerprint_kind=kind,
            )
        if pending:
            supervised_map(
                _execute,
                pending,
                labels=[task.label for task in pending],
                jobs=jobs,
                on_done=on_done,
            )

    metrics.tasks = [records[(t.experiment, t.shard)] for t in tasks]
    metrics.wall_s = time.perf_counter() - started  # repro: allow(wall-clock)
    # Per-stage rollup of every span this run produced (workers' spans
    # were absorbed as their tasks finished).
    metrics.stages = obs.aggregate_stages(spans)
    return results, metrics
