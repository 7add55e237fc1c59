"""The one pool loop: run every task, and fail the run on the first failure.

:func:`supervised_map` runs ``fn(item)`` for every item and hands each
result to ``on_done`` as the task finishes, so the caller can store it
at once.  A task that raises, or a pooled worker that exits without
reporting a result (a segfault, ``os._exit``), fails the whole run with
:class:`TaskFailed`, which names the task, the exception type, the
message and the traceback.  Live workers are terminated first, through
the same teardown a ``KeyboardInterrupt`` takes.

There is no retry and no partial result.  Every task is a pure, seeded
function, so a failure would only happen again, and a table merged
without one of its shards is not the paper's table.  Each finished task
is already in the cache, so rerunning the same command computes only
what failed or never finished.

With ``jobs <= 1`` tasks run inline in the calling process; otherwise
each task runs in its own single-task worker process.  Either way a
failure raises the same :class:`TaskFailed`.  Observability spans
(:mod:`repro.obs`) ride the result pipe: a pooled worker ships the span
records its task produced alongside the result.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import obs

_KILL_GRACE_S = 2.0  # SIGTERM -> SIGKILL escalation window


class TaskFailed(RuntimeError):
    """A task raised or its worker crashed; the run stops here."""

    def __init__(self, label: str, error_type: str, message: str,
                 traceback: str = "") -> None:
        super().__init__(f"{label}: {error_type}: {message}")
        self.label = label
        self.error_type = error_type
        self.message = message
        self.traceback = traceback


def _run_in_worker(fn: Callable, item: Any, conn) -> None:
    """Child-process entry point: run one task, report over the pipe.

    The message is either ``("ok", result, spans)`` — where ``spans``
    are the :mod:`repro.obs` records the task produced — or
    ``("error", type_name, message, traceback)``; a crash sends nothing
    at all, which the supervisor reads as EOF.
    """
    try:
        with obs.collect() as spans:
            result = fn(item)
        conn.send(("ok", result, spans))
    except BaseException as exc:  # reported to the supervisor, which fails the run
        try:
            conn.send(("error", type(exc).__name__, str(exc),
                       traceback.format_exc()))
        except (OSError, pickle.PickleError):
            pass  # pipe gone; the supervisor reads EOF as a crash
    finally:
        try:
            conn.close()
        except OSError:
            pass  # already closed
        os._exit(0)


@dataclass
class _Running:
    index: int
    process: multiprocessing.process.BaseProcess
    conn: Any


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
    on_done: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """``[fn(item) for item in items]``, across ``jobs`` workers.

    Results come back in ``items`` order; ``on_done(index, result)``
    fires in completion order as each task finishes.  The first failure
    raises :class:`TaskFailed`; a ``KeyboardInterrupt`` re-raises.  Both
    terminate every live worker and drop the queue.
    """
    if len(items) != len(labels):
        raise ValueError("items and labels must have the same length")
    results: list[Any] = [None] * len(items)

    def settle(index: int, result: Any) -> None:
        results[index] = result
        if on_done is not None:
            on_done(index, result)

    if jobs <= 1:
        for index, item in enumerate(items):
            try:
                result = fn(item)
            except Exception as exc:
                raise TaskFailed(labels[index], type(exc).__name__, str(exc),
                                 traceback.format_exc()) from exc
            settle(index, result)
    else:
        _run_pooled(fn, items, labels, jobs, settle)
    return results


def _run_pooled(fn, items, labels, jobs, settle) -> None:
    from multiprocessing.connection import wait as wait_connections

    ctx = multiprocessing.get_context()
    pending: deque[int] = deque(range(len(items)))
    running: dict[Any, _Running] = {}

    def launch(index: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_run_in_worker,
            args=(fn, items[index], child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        running[parent_conn] = _Running(index, process, parent_conn)

    def receive(entry: _Running) -> None:
        label = labels[entry.index]
        try:
            message = entry.conn.recv()
        except (EOFError, OSError):
            message = None
        except Exception as exc:  # the result arrived but will not unpickle
            raise TaskFailed(
                label, type(exc).__name__,
                f"result failed to unpickle in the supervisor: {exc}",
                traceback.format_exc()) from exc
        finally:
            entry.conn.close()
            entry.process.join()
        if message is None:
            raise TaskFailed(
                label, "WorkerCrash",
                f"worker pid {entry.process.pid} exited with code "
                f"{entry.process.exitcode} before reporting a result")
        if message[0] == "error":
            _, error_type, text, tb = message
            raise TaskFailed(label, error_type, text, tb)
        _, result, spans = message
        obs.absorb(spans)
        settle(entry.index, result)

    try:
        while pending or running:
            while pending and len(running) < jobs:
                launch(pending.popleft())
            for conn in wait_connections(list(running)):
                receive(running.pop(conn))
    except BaseException:  # kill orphan workers, then re-raise (TaskFailed, KeyboardInterrupt)
        for entry in running.values():
            _terminate(entry.process)
            entry.conn.close()
        raise
