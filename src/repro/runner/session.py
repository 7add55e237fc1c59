"""One run session: the flags, setup and teardown every supervised run shares.

``python -m repro <experiment>`` and ``python -m repro sweep run`` launch
runs the same way, and this module is the one place that way is spelled
out:

- :func:`add_run_flags` declares the nine run flags (``--jobs``,
  ``--no-cache``, ``--cache-dir``, ``--metrics-out``, ``--task-timeout``,
  ``--resume``, ``--fail-fast``, ``--inject``, ``--trace``) on a parser.
- :func:`open_session` turns the parsed flags into a :class:`RunSession`:
  the result cache, the fault plan (``--inject`` plus ``$REPRO_INJECT``),
  the supervision policy and the resume journal, with tracing enabled
  before any worker spawns.  Bad flags come back as exit status 2.
- :meth:`RunSession.run` calls :func:`repro.analysis.run_experiments` or
  :func:`repro.sweep.engine.run_sweep` with those pieces, with SIGTERM
  taking the Ctrl-C path so the journal stays flushed either way.
- :meth:`RunSession.finish` prints the metrics summary and writes
  ``--metrics-out`` and the Chrome trace.  With ``--trace`` on, the
  metrics also carry the per-stage ``stages`` rollup of the spans.

Not re-exported from :mod:`repro.runner`: this module imports the
:mod:`repro.obs.export` trace writer, which stays out of every
experiment's fingerprint slice.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

from repro import obs
from repro.faults import FaultPlan, FaultPlanError
from repro.obs import export as obs_export
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.fingerprint import code_fingerprint
from repro.runner.journal import RunJournal, sigterm_interrupts
from repro.runner.metrics import RunMetrics
from repro.runner.resilience import FailFastError, SupervisionPolicy


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
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock limit; a stuck worker is killed and "
             "the task quarantined (default: no limit)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip tasks journaled as completed by an interrupted run "
             "(requires the cache; journal lives under the cache root)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the run on the first quarantined task instead of "
             "completing the healthy ones",
    )
    parser.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="LABEL=KIND",
        help="deterministic fault injection for testing: fault tasks "
             "matching LABEL (fnmatch over task labels, e.g. 'figure7/*' "
             "or 'sweep:figure7/*') with KIND (crash, hang, raise; "
             "hang needs --task-timeout); repeatable, also read from "
             "$REPRO_INJECT",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="enable span tracing and write a Chrome trace-event JSON "
             "(load in Perfetto / chrome://tracing) covering every "
             "modeling layer",
    )


class RunSession:
    """The cache, fault plan, policy and journal of one run."""

    def __init__(self, args: argparse.Namespace, cache: ResultCache | None,
                 faults: FaultPlan, policy: SupervisionPolicy) -> None:
        self.args = args
        self.cache = cache
        self.faults = faults
        self.policy = policy
        self.journal = RunJournal(cache.root, cache.fingerprint) \
            if cache else None
        self.tracing = args.trace is not None
        self.spans_before = 0
        if self.tracing:
            # Enable before any worker spawns so pooled workers inherit the
            # flag (via $REPRO_TRACE) and their spans ride back with results.
            obs.enable()
            self.spans_before = obs.mark()

    @property
    def fingerprint(self) -> str:
        """The code fingerprint the cache keys on, or the tree's when off."""
        return self.cache.fingerprint if self.cache else code_fingerprint()

    def run(self, fn: Callable, *args: Any) -> Any:
        """``fn(*args, ...)`` with the session's runner arguments.

        Returns what ``fn`` returns, or an exit status: 130 when
        interrupted (Ctrl-C or SIGTERM), 1 when ``--fail-fast`` aborted.
        """
        try:
            # SIGTERM takes the KeyboardInterrupt path: live workers are
            # terminated and the journal stays flushed, so a `kill` is as
            # resumable as a Ctrl-C.
            with sigterm_interrupts():
                return fn(
                    *args, jobs=self.args.jobs, cache=self.cache,
                    policy=self.policy, faults=self.faults or None,
                    journal=self.journal, resume=self.args.resume,
                    on_partial=self._write_metrics,
                )
        except KeyboardInterrupt:
            print("\ninterrupted — completed tasks are journaled and cached; "
                  "rerun with --resume to pick up where this run stopped",
                  file=sys.stderr)
            return 130
        except FailFastError as exc:
            print(f"fail-fast: {exc}", file=sys.stderr)
            print("completed tasks are journaled and cached; rerun with "
                  "--resume after fixing the failure", file=sys.stderr)
            return 1

    def _write_metrics(self, metrics: RunMetrics) -> None:
        if self.args.metrics_out:
            metrics.write(self.args.metrics_out)

    def finish(self, metrics: RunMetrics) -> int:
        """Report the run; 1 if any task was quarantined, else 0."""
        print(metrics.render(), file=sys.stderr)
        if self.args.metrics_out:
            self._write_metrics(metrics)
            print(f"metrics written to {self.args.metrics_out}",
                  file=sys.stderr)

        if self.tracing:
            records = obs.since(self.spans_before)
            obs_export.write_chrome_trace(self.args.trace, records)
            print(f"trace written to {self.args.trace} "
                  f"({len(records)} spans)", file=sys.stderr)

        if metrics.quarantined:
            print(f"run finished with {metrics.quarantined} quarantined "
                  f"task(s); see the metrics for tracebacks", file=sys.stderr)
            return 1
        return 0


def open_session(args: argparse.Namespace) -> RunSession | int:
    """A session for the parsed run flags, or exit status 2 (with the
    reason on stderr) when they do not make sense together."""
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.resume and cache is None:
        print("--resume needs the result cache (drop --no-cache)",
              file=sys.stderr)
        return 2
    try:
        faults = FaultPlan.parse(args.inject or [])
        faults = FaultPlan(faults.specs + FaultPlan.from_env().specs)
    except FaultPlanError as exc:
        print(f"bad --inject / $REPRO_INJECT: {exc}", file=sys.stderr)
        return 2
    if args.task_timeout is None and \
            any(spec.kind == "hang" for spec in faults.specs):
        print("a hang injection needs --task-timeout; nothing else ends "
              "the hung task", file=sys.stderr)
        return 2
    try:
        policy = SupervisionPolicy(
            task_timeout=args.task_timeout,
            fail_fast=args.fail_fast,
        )
    except ValueError as exc:
        print(f"bad supervision flags: {exc}", file=sys.stderr)
        return 2
    return RunSession(args, cache, faults, policy)
