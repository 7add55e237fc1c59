"""Hierarchical span tracing, collected by the run that owns the spans.

A *span* is a named, timed slice of one process's work::

    from repro import obs

    with obs.span("gspn/run/membank") as sp:
        ...            # the event loop
        sp.add("events", simulated_events)

Spans nest (the ``with`` statement guarantees well-nestedness), carry
monotonic start/duration timestamps, and capture the
:mod:`repro.common.tally` deltas accumulated while they were open, so a
``gspn/run/*`` span automatically reports how many firings it covered.

Spans are recorded only while a :func:`collect` context is open; it
yields the list of records that close inside it, and on close hands
them to the enclosing collector, if there is one.  Outside every
collector :func:`span` returns a shared no-op context manager — one
function call, one branch, no allocation — so a direct simulator call
costs nothing measurable and leaves nothing behind.  Three places
collect:

- :func:`repro.runner.run_tasks`, around every run: its records fill
  ``RunMetrics.stages``, and each computed task's ``TaskMetrics`` is
  read off its ``task/<label>`` span (a cache hit's off its
  ``cache/hit/<label>`` span);
- a pooled worker, around its one task: the records ride back over the
  supervised executor's result pipe (see :mod:`repro.runner.resilience`)
  and the supervisor :func:`absorb`\\ s them, so ``jobs=1`` and
  ``jobs=N`` report the same spans;
- the CLI's run session, whose records ``--trace`` writes out.

The tracer is intentionally not thread-safe: the simulators are
single-threaded per process, and keeping the recording path free of
locks is the point.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.common import tally

# The open collectors of this process, innermost last.
_collectors: list[list["SpanRecord"]] = []


@dataclass
class SpanRecord:
    """One closed span.

    ``start_ns`` comes from ``time.perf_counter_ns`` (CLOCK_MONOTONIC),
    which shares its epoch across processes on Linux, so spans from
    pool workers line up with the supervisor's on a common timeline.
    """

    name: str  # hierarchical path, e.g. "task/figure7/126.gcc"
    start_ns: int
    dur_ns: int
    pid: int
    counters: dict[str, float] = field(default_factory=dict)


class _NoopSpan:
    """The uncollected-path singleton: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, name: str, value: float) -> None:
        pass


_NOOP = _NoopSpan()


class _LiveSpan:
    """An open span; closing it hands a :class:`SpanRecord` to the
    innermost collector."""

    __slots__ = ("name", "counters", "start_ns", "_tally_before")

    def __init__(self, name: str, counters: dict[str, float]) -> None:
        self.name = name
        self.counters = counters

    def __enter__(self) -> "_LiveSpan":
        self._tally_before = tally.snapshot()
        self.start_ns = time.perf_counter_ns()  # repro: allow(wall-clock) — observability timestamps, not simulated time
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()  # repro: allow(wall-clock) — observability timestamps, not simulated time
        counters = dict(self.counters)
        for name, delta in tally.since(self._tally_before).items():
            counters[name] = counters.get(name, 0) + delta
        if _collectors:
            _collectors[-1].append(SpanRecord(
                name=self.name,
                start_ns=self.start_ns,
                dur_ns=end_ns - self.start_ns,
                pid=os.getpid(),
                counters=counters,
            ))
        return False

    def add(self, name: str, value: float) -> None:
        """Attach (or accumulate) a counter on this span."""
        self.counters[name] = self.counters.get(name, 0) + value


def span(name: str, **counters: float):
    """Open a span named ``name``; a no-op while nothing collects."""
    if not _collectors:
        return _NOOP
    return _LiveSpan(name, dict(counters))


@contextmanager
def collect() -> Iterator[list[SpanRecord]]:
    """Record the spans that close while this context is open.

    Yields the list they are appended to, in closing order.  On close,
    the records also pass to the enclosing collector, if there is one,
    so every scope around a run sees the spans inside it.
    """
    records: list[SpanRecord] = []
    _collectors.append(records)
    try:
        yield records
    finally:
        _collectors.pop()
        absorb(records)


def absorb(records: list[SpanRecord]) -> None:
    """Hand records to the innermost open collector; dropped if none.

    The supervisor absorbs the records a pool worker shipped back.
    Records carry their own timestamps, so the rollup does not depend
    on the order batches arrive in.
    """
    if _collectors:
        _collectors[-1].extend(records)


def aggregate_stages(records: list[SpanRecord]) -> dict[str, dict]:
    """Per-stage rollup: spans grouped by name.

    Each stage reports how many spans it covered, their total wall
    seconds, the summed counters, and per-second rates for every
    counter (0 when the stage took no measurable time).  Lives here —
    not with the exporters — because the runner folds it into the run
    metrics whether or not anything is written to disk.
    """
    stages: dict[str, dict] = {}
    for record in records:
        stage = stages.setdefault(record.name, {
            "count": 0, "wall_s": 0.0, "counters": {},
        })
        stage["count"] += 1
        stage["wall_s"] += record.dur_ns / 1e9
        for name, value in record.counters.items():
            stage["counters"][name] = stage["counters"].get(name, 0) + value
    for stage in stages.values():
        wall = stage["wall_s"]
        stage["per_sec"] = {
            name: (value / wall if wall > 0 else 0.0)
            for name, value in sorted(stage["counters"].items())
        }
    return stages
