"""Hierarchical span tracing with a near-zero-cost disabled path.

A *span* is a named, timed slice of one process's work::

    from repro import obs

    with obs.span("gspn/run/membank") as sp:
        ...            # the event loop
        sp.add("events", simulated_events)

Spans nest (the ``with`` statement guarantees well-nestedness), carry
monotonic start/duration timestamps, and capture the
:mod:`repro.common.tally` deltas accumulated while they were open, so a
``gspn/run/*`` span automatically reports how many firings it covered.

Tracing is **off by default** and :func:`span` then returns a shared
no-op context manager — one function call, one branch, no allocation —
so instrumented hot paths cost nothing measurable when nobody is
looking.  It is enabled explicitly (:func:`enable`, or the
``REPRO_TRACE`` environment variable) by the CLI's ``--trace`` /
``--perf-summary`` flags.

Records are **per-process**, mirroring the snapshot/since pattern of
:mod:`repro.common.tally`: a pool worker accumulates its own records,
ships the ones a successful attempt produced back over the supervised
executor's result pipe (see :mod:`repro.runner.resilience`), and the
supervisor :func:`absorb`\\ s them.  A failed attempt's records are
rolled back (inline) or die with the worker (pooled), so retries never
double-count.

The tracer is intentionally not thread-safe: the simulators are
single-threaded per process, and keeping the enabled fast path free of
locks is the point.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.common import tally

ENV_FLAG = "REPRO_TRACE"

_enabled: bool = os.environ.get(ENV_FLAG, "") not in ("", "0")
_records: list["SpanRecord"] = []
_stack: list["_LiveSpan"] = []


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
    depth: int  # nesting depth at entry (0 = top level in its process)
    counters: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
            "pid": self.pid,
            "depth": self.depth,
            "counters": dict(self.counters),
        }


class _NoopSpan:
    """The disabled-path singleton: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, name: str, value: float) -> None:
        pass


_NOOP = _NoopSpan()


class _LiveSpan:
    """An open span; closing it appends a :class:`SpanRecord`."""

    __slots__ = ("name", "counters", "start_ns", "depth", "_tally_before")

    def __init__(self, name: str, counters: dict[str, float]) -> None:
        self.name = name
        self.counters = counters

    def __enter__(self) -> "_LiveSpan":
        self.depth = len(_stack)
        _stack.append(self)
        self._tally_before = tally.snapshot()
        self.start_ns = time.perf_counter_ns()  # repro: allow(wall-clock) — observability timestamps, not simulated time
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()  # repro: allow(wall-clock) — observability timestamps, not simulated time
        if _stack and _stack[-1] is self:
            _stack.pop()
        counters = dict(self.counters)
        for name, delta in tally.since(self._tally_before).items():
            counters[name] = counters.get(name, 0) + delta
        _records.append(SpanRecord(
            name=self.name,
            start_ns=self.start_ns,
            dur_ns=end_ns - self.start_ns,
            pid=os.getpid(),
            depth=self.depth,
            counters=counters,
        ))
        return False

    def add(self, name: str, value: float) -> None:
        """Attach (or accumulate) a counter on this span."""
        self.counters[name] = self.counters.get(name, 0) + value


def span(name: str, **counters: float):
    """Open a span named ``name``; a no-op while tracing is disabled."""
    if not _enabled:
        return _NOOP
    return _LiveSpan(name, dict(counters))


def add(name: str, value: float) -> None:
    """Attach a counter to the innermost open span (no-op otherwise)."""
    if _enabled and _stack:
        _stack[-1].add(name, value)


def enabled() -> bool:
    return _enabled


def enable() -> None:
    """Turn tracing on, for this process and (via the environment) for
    any worker process it spawns."""
    global _enabled
    _enabled = True
    os.environ[ENV_FLAG] = "1"


def disable() -> None:
    global _enabled
    _enabled = False
    os.environ.pop(ENV_FLAG, None)


def mark() -> int:
    """A position in this process's record list, for :func:`since`."""
    return len(_records)


def since(position: int) -> list[SpanRecord]:
    """Records appended after ``position`` was taken (a copy)."""
    return list(_records[position:])


def rollback(position: int) -> None:
    """Drop every record appended after ``position`` — used to erase the
    spans of a failed inline attempt so a retry cannot double-count."""
    # Unguarded: the tracer is single-threaded by contract (module
    # docstring), so no other thread appends while this truncates.
    del _records[position:]


def absorb(records: list[SpanRecord]) -> None:
    """Merge records collected in another process into this one's list."""
    # Unguarded: the tracer is single-threaded by contract (module
    # docstring); records carry their own timestamps, so the rollup
    # does not depend on the order batches arrive in.
    _records.extend(records)


def records() -> list[SpanRecord]:
    """Every record this process has collected or absorbed (a copy)."""
    return list(_records)


def reset() -> None:
    """Clear all records and any (leaked) open-span state."""
    _records.clear()
    _stack.clear()


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
