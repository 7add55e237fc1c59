"""Supervised task execution: timeouts, crash detection, quarantine.

:func:`supervised_map` is the fault-tolerant replacement for a bare
``pool.map``: it runs ``fn(item)`` for every item, each in its own
single-task worker process, under a supervisor that

- enforces a per-task wall-clock **timeout**, killing a stuck worker
  (``SIGTERM`` then ``SIGKILL``);
- detects **crashes** (a worker that exits without reporting a result,
  e.g. a segfault or ``os._exit``);
- **quarantines** a failed task: the failure (kind, exception type,
  message, traceback, worker pid) is recorded in the returned
  :class:`TaskOutcome` and every other task still completes — unless
  ``fail_fast`` asks the first quarantine to abort the whole run via
  :class:`FailFastError`.

Each task gets exactly one attempt.  Every task here is a pure, seeded
function, so a crash, hang or exception would only happen again on a
retry.  A result that the parent cannot unpickle is an ``exception``
failure that names its task, like any other.

With ``jobs <= 1`` tasks run inline in the calling process (same code
path the cache and tallies rely on).  Only an exception is quarantined
there: a crash takes the calling process with it, and no watchdog can
end a hung task.

Observability spans (:mod:`repro.obs`) ride the result pipe: a pooled
worker ships the span records its task produced alongside the result,
and the supervisor absorbs them only when the task succeeds.  A failed
*inline* task's spans are rolled back, so ``jobs=1`` and ``jobs=N``
report the same spans.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import obs

_KILL_GRACE_S = 2.0  # SIGTERM -> SIGKILL escalation window


@dataclass(frozen=True)
class SupervisionPolicy:
    """When to give a task up, and what a failure does to the run.

    ``task_timeout`` is seconds per task (``None`` disables the
    watchdog); ``fail_fast`` turns the first quarantine into
    :class:`FailFastError` instead of carrying on.
    """

    task_timeout: float | None = None
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.task_timeout is not None and not (
                math.isfinite(self.task_timeout) and self.task_timeout > 0):
            raise ValueError(
                f"task_timeout must be finite and > 0, got {self.task_timeout}")


@dataclass(frozen=True)
class TaskFailure:
    """Why one task was quarantined."""

    label: str
    kind: str  # "crash" | "timeout" | "exception"
    error_type: str
    message: str
    traceback: str = ""
    worker: int = 0  # pid of the failing process (0 if unknown)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "worker": self.worker,
        }

    def describe(self) -> str:
        return (f"{self.label}: {self.kind} — "
                f"{self.error_type}: {self.message}")


@dataclass
class TaskOutcome:
    """What happened to one item of a supervised map."""

    label: str
    result: Any = None
    failure: TaskFailure | None = None
    wall_s: float = 0.0  # supervisor-side elapsed

    @property
    def ok(self) -> bool:
        return self.failure is None


class FailFastError(RuntimeError):
    """A quarantine aborted the run because ``fail_fast`` was set."""

    def __init__(self, failure: TaskFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


# ---------------------------------------------------------------------------
# Running one task
# ---------------------------------------------------------------------------


def _run_in_worker(fn: Callable, item: Any, conn) -> None:
    """Child-process entry point: run one task, report over the pipe.

    The message is either ``("ok", result, spans)`` — where
    ``spans`` are the :mod:`repro.obs` records the task produced — or
    ``("error", type_name, message, traceback, pid)``; a crash sends
    nothing at all, which the supervisor reads as EOF.
    """
    pid = os.getpid()
    try:
        spans_before = obs.mark()
        result = fn(item)
        conn.send(("ok", result, obs.since(spans_before)))
    except BaseException as exc:  # reported to the supervisor, which quarantines
        try:
            conn.send(("error", type(exc).__name__, str(exc),
                       traceback.format_exc(), pid))
        except (OSError, pickle.PickleError):
            pass  # pipe gone; the exit code tells the story
    finally:
        try:
            conn.close()
        except OSError:
            pass  # already closed
        os._exit(0)


def _run_inline(fn: Callable, item: Any,
                label: str) -> tuple[Any, TaskFailure | None]:
    """Run one task in this process: ``(result, failure)``."""
    try:
        return fn(item), None
    except KeyboardInterrupt:
        raise  # the caller hands out partial metrics and re-raises
    except BaseException as exc:  # converted to a TaskFailure for quarantine
        return None, TaskFailure(
            label=label, kind="exception", error_type=type(exc).__name__,
            message=str(exc), traceback=traceback.format_exc(),
            worker=os.getpid(),
        )


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


@dataclass
class _Running:
    index: int
    started: float  # launch timestamp (monotonic)
    process: multiprocessing.process.BaseProcess
    conn: Any
    deadline: float | None


def _terminate(process: multiprocessing.process.BaseProcess) -> None:
    """SIGTERM, brief grace, then SIGKILL; always reaped."""
    if process.is_alive():
        process.terminate()
        process.join(_KILL_GRACE_S)
        if process.is_alive():
            process.kill()
            process.join()
    else:
        process.join()


def supervised_map(
    fn: Callable,
    items: Sequence[Any],
    *,
    labels: Sequence[str],
    jobs: int = 1,
    policy: SupervisionPolicy | None = None,
    on_done: Callable[[int, TaskOutcome], None] | None = None,
) -> list[TaskOutcome]:
    """Run ``fn(item)`` for every item under supervision.

    Outcomes come back in ``items`` order; ``on_done(index, outcome)``
    fires in completion order as each task settles, so callers can
    cache incrementally (and keep that state if the run is
    interrupted — a ``KeyboardInterrupt`` terminates every live worker,
    drops the queue, and re-raises).
    """
    if len(items) != len(labels):
        raise ValueError("items and labels must have the same length")
    policy = policy or SupervisionPolicy()
    outcomes: list[TaskOutcome | None] = [None] * len(items)

    def settle(index: int, started: float, result: Any,
               failure: TaskFailure | None) -> None:
        """Record one task's outcome and report it."""
        wall = time.monotonic() - started  # repro: allow(wall-clock) — supervision bookkeeping
        outcome = TaskOutcome(label=labels[index], result=result,
                              failure=failure, wall_s=wall)
        outcomes[index] = outcome
        if on_done is not None:
            on_done(index, outcome)
        if failure is not None and policy.fail_fast:
            raise FailFastError(failure)

    if jobs <= 1:
        for index, item in enumerate(items):
            started = time.monotonic()  # repro: allow(wall-clock) — supervision bookkeeping
            spans_before = obs.mark()
            result, failure = _run_inline(fn, item, labels[index])
            if failure is not None:
                # A failed pooled task's spans die with its worker;
                # erase the inline ones so jobs=1 reports the same.
                obs.rollback(spans_before)
            settle(index, started, result, failure)
    else:
        _run_pooled(fn, items, labels, jobs, policy, settle)
    # Every task settles before this point (an abort raises past it
    # instead), so the list is fully populated.
    return outcomes  # type: ignore[return-value]


def _run_pooled(fn, items, labels, jobs, policy, settle) -> None:
    from multiprocessing.connection import wait as wait_connections

    ctx = multiprocessing.get_context()
    pending: deque[int] = deque(range(len(items)))
    running: dict[Any, _Running] = {}

    def launch(index: int) -> None:
        started = time.monotonic()  # repro: allow(wall-clock) — supervision bookkeeping
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_run_in_worker,
            args=(fn, items[index], child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = (
            started + policy.task_timeout if policy.task_timeout is not None
            else None
        )
        running[parent_conn] = _Running(index, started, process, parent_conn,
                                        deadline)

    def fail(entry: _Running, kind: str, error_type: str, message: str,
             tb: str, worker: int) -> None:
        settle(entry.index, entry.started, None, TaskFailure(
            label=labels[entry.index], kind=kind, error_type=error_type,
            message=message, traceback=tb, worker=worker,
        ))

    def receive(entry: _Running) -> None:
        pid = entry.process.pid or 0
        try:
            message = entry.conn.recv()
        except (EOFError, OSError):
            message = None
        except Exception as exc:  # the result arrived but will not unpickle
            message = ("error", type(exc).__name__,
                       f"result failed to unpickle in the supervisor: {exc}",
                       traceback.format_exc(), pid)
        entry.conn.close()
        entry.process.join()
        if message is None:
            code = entry.process.exitcode
            fail(entry, "crash", "WorkerCrash",
                 f"worker pid {pid} exited with code {code} before "
                 f"reporting a result",
                 f"(no Python traceback: worker pid {pid} died with exit "
                 f"code {code} before reporting a result)", pid)
        elif message[0] == "error":
            _, error_type, text, tb, worker = message
            fail(entry, "exception", error_type, text, tb, worker)
        else:
            _, result, spans = message
            # Only a successful task's spans are kept; a failed task's
            # die with its worker process.
            obs.absorb(spans)
            settle(entry.index, entry.started, result, None)

    def expire(entry: _Running) -> None:
        _terminate(entry.process)
        entry.conn.close()
        fail(entry, "timeout", "Timeout",
             f"task exceeded --task-timeout ({policy.task_timeout:g}s); "
             f"worker pid {entry.process.pid} killed", "",
             entry.process.pid or 0)

    try:
        while pending or running:
            while pending and len(running) < jobs:
                launch(pending.popleft())
            deadlines = [e.deadline for e in running.values()
                         if e.deadline is not None]
            now = time.monotonic()  # repro: allow(wall-clock) — supervision bookkeeping
            timeout = max(0.0, min(deadlines) - now) if deadlines else None
            for conn in wait_connections(list(running), timeout=timeout):
                receive(running.pop(conn))
            now = time.monotonic()  # repro: allow(wall-clock) — supervision bookkeeping
            for conn in [c for c, e in running.items()
                         if e.deadline is not None and e.deadline <= now]:
                expire(running.pop(conn))
    except BaseException:  # kill orphan workers, then re-raise (includes KeyboardInterrupt)
        for entry in running.values():
            _terminate(entry.process)
            entry.conn.close()
        raise
