"""Parallel experiment runner: supervised pool + result cache + metrics.

The pieces, each usable on its own:

- :mod:`repro.runner.fingerprint` — SHA-256 code fingerprints: the
  whole-package hash, and per-experiment *dependency slices* (computed
  from the static import graph of :mod:`repro.check.callgraph`) that
  keep cached results valid across edits to unrelated modules.
- :mod:`repro.runner.cache` — content-addressed on-disk store keyed by
  ``(task call id, kwargs, code fingerprint)``, using the slice
  fingerprint when it is provably sound and the whole-tree hash
  otherwise; damaged entries are quarantined (``*.corrupt``), never
  re-read.
- :mod:`repro.runner.resilience` — the supervised executor: one
  attempt per task, per-task timeouts with a watchdog, crash detection,
  failure quarantine, ``fail_fast``.
- :mod:`repro.runner.core` — :class:`Task` and :func:`run_tasks`, the
  supervised executor (``jobs=1`` runs inline, deterministically
  identical) and the one path that keys, loads and stores results;
  every cached task is served as a hit, so rerunning an interrupted run
  recomputes only what it did not finish.
- :mod:`repro.runner.metrics` — per-task wall time / cache status /
  quarantine records, exported as JSON and a rendered summary.
- :mod:`repro.runner.session` — the run flags and their setup and
  teardown, shared by ``python -m repro <experiment>`` and
  ``python -m repro sweep run``, and the SIGTERM-to-Ctrl-C bridge.  Not
  re-exported here: it imports the :mod:`repro.obs.export` file writers.

The experiment-level API (sharding Table 3 into its 18 benchmarks and
so on) lives in :mod:`repro.analysis.registry`, which builds on these.
"""

from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    CacheEntry,
    ResultCache,
    canonical_kwargs,
    default_cache_dir,
)
from repro.runner.core import Task, run_tasks
from repro.runner.fingerprint import (
    SliceFingerprint,
    code_fingerprint,
    invalidate,
    slice_fingerprint,
)
from repro.runner.metrics import METRICS_SCHEMA_VERSION, RunMetrics, TaskMetrics
from repro.runner.resilience import (
    FailFastError,
    SupervisionPolicy,
    TaskFailure,
    TaskOutcome,
    supervised_map,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "METRICS_SCHEMA_VERSION",
    "CacheEntry",
    "FailFastError",
    "ResultCache",
    "RunMetrics",
    "SliceFingerprint",
    "SupervisionPolicy",
    "Task",
    "TaskFailure",
    "TaskMetrics",
    "TaskOutcome",
    "canonical_kwargs",
    "code_fingerprint",
    "default_cache_dir",
    "invalidate",
    "run_tasks",
    "slice_fingerprint",
    "supervised_map",
]
