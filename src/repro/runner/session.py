"""One run session: the flags, setup and teardown of a supervised run.

``python -m repro`` launches every run, of the paper's experiments and
of the registered sweeps (``sweep:<name>``) alike, and this module
spells out how:

- :func:`add_run_flags` declares the five run flags (``--jobs``,
  ``--no-cache``, ``--cache-dir``, ``--metrics-out``, ``--trace``) on a
  parser.
- :func:`open_session` turns the parsed flags into a :class:`RunSession`
  around the result cache.
- :meth:`RunSession.run` calls :func:`repro.analysis.run_experiments`
  with those pieces, with SIGTERM taking the Ctrl-C path
  (:func:`sigterm_interrupts`), and collects the run's spans
  (:func:`repro.obs.collect`).  A failed task
  fails the run with exit status 1, an interrupt with 130.  Every task
  that finished before either is in the cache, so rerunning the same
  command recomputes only the rest.
- :meth:`RunSession.finish` prints the metrics summary and writes
  ``--metrics-out`` (whose ``stages`` rollup every run fills) and, with
  ``--trace``, the Chrome trace of the collected spans.

Not re-exported from :mod:`repro.runner`: this module imports the
:mod:`repro.obs.export` trace writer, which stays out of every
experiment's fingerprint slice.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from contextlib import contextmanager
from typing import Any, Callable

from repro import obs
from repro.obs import export as obs_export
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.fingerprint import code_fingerprint
from repro.runner.metrics import RunMetrics
from repro.runner.resilience import TaskFailed


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the run flags shared by every command that launches a run."""
    parser.add_argument(
        "--jobs", "-j",
        type=positive_int,
        default=1,
        help="worker processes for independent tasks (default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything, and do not store results",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default .repro-cache, or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write per-task run metrics (wall time, cache status, event "
             "tallies) as JSON",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the run's spans as a Chrome trace-event JSON "
             "(load in Perfetto / chrome://tracing) covering every "
             "modeling layer",
    )


@contextmanager
def sigterm_interrupts():
    """Raise ``KeyboardInterrupt`` on SIGTERM while the context is open.

    Installed by ``python -m repro`` around every run, so
    SIGTERM takes the same terminate-workers-and-unwind path as Ctrl-C
    instead of the default handler's instant death.  A no-op off the
    main thread or on platforms without SIGTERM (only the main thread
    may set signal handlers).
    """
    if threading.current_thread() is not threading.main_thread() or \
            not hasattr(signal, "SIGTERM"):
        yield
        return

    def _raise_interrupt(signum, frame):
        # The handler body is the reentrant-safe minimum — a bare
        # raise, no locks, no I/O buffers.  The teardown runs in the
        # unwound frame, outside handler context.
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class RunSession:
    """The cache and the collected spans of one run."""

    def __init__(self, args: argparse.Namespace,
                 cache: ResultCache | None) -> None:
        self.args = args
        self.cache = cache
        self.spans: list[obs.SpanRecord] = []

    @property
    def fingerprint(self) -> str:
        """The code fingerprint the cache keys on, or the tree's when off."""
        return self.cache.fingerprint if self.cache else code_fingerprint()

    def run(self, fn: Callable, *args: Any) -> Any:
        """``fn(*args, ...)`` with the session's runner arguments.

        Returns what ``fn`` returns, or an exit status: 1 when a task
        failed, 130 when interrupted (Ctrl-C or SIGTERM).
        """
        try:
            # SIGTERM takes the KeyboardInterrupt path: live workers are
            # terminated, as for Ctrl-C.
            with sigterm_interrupts(), obs.collect() as self.spans:
                return fn(*args, jobs=self.args.jobs, cache=self.cache)
        except KeyboardInterrupt:
            print("\ninterrupted — completed tasks are cached; rerun the "
                  "same command to pick up where this run stopped",
                  file=sys.stderr)
            return 130
        except TaskFailed as exc:
            print(f"task {exc.label} failed: {exc.error_type}: "
                  f"{exc.message}", file=sys.stderr)
            if exc.traceback:
                print(exc.traceback.rstrip(), file=sys.stderr)
            print("completed tasks are cached; rerun the same command "
                  "after fixing the failure", file=sys.stderr)
            return 1

    def finish(self, metrics: RunMetrics) -> None:
        """Report the run: the metrics summary, ``--metrics-out`` and,
        with ``--trace``, the Chrome trace."""
        print(metrics.render(), file=sys.stderr)
        if self.args.metrics_out:
            metrics.write(self.args.metrics_out)
            print(f"metrics written to {self.args.metrics_out}",
                  file=sys.stderr)

        if self.args.trace is not None:
            obs_export.write_chrome_trace(self.args.trace, self.spans)
            print(f"trace written to {self.args.trace} "
                  f"({len(self.spans)} spans)", file=sys.stderr)


def open_session(args: argparse.Namespace) -> RunSession:
    """A session for the parsed run flags."""
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return RunSession(args, cache)
