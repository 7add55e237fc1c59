"""Observability: hierarchical span tracing and its trace exporter.

The package-wide tracing layer behind every run's ``stages`` metrics
and ``python -m repro <experiment> --trace out.json``:

- :mod:`repro.obs.spans` — the tracer itself: ``span()`` context
  managers with monotonic timing, nesting, counter attachment,
  automatic :mod:`repro.common.tally` delta capture, the scoped
  :func:`collect` that gathers them, and the in-memory
  :func:`aggregate_stages` rollup the run metrics embed.  Outside a
  collector a span is a shared no-op object, cheap enough to leave in
  every hot entry point.
- :mod:`repro.obs.export` — the Chrome trace-event JSON exporter
  (loadable in Perfetto).  **Not re-exported here**: this ``__init__``
  executes inside every simulator import (``from repro import obs`` in
  the hot paths), so it stays inside every experiment's fingerprint
  slice — re-exporting the file writer would put ``export.py`` in
  every slice too and an exporter tweak would invalidate every cached
  result.  The CLI and tests import :mod:`repro.obs.export` directly.

All four modeling layers are instrumented at their run() granularity:
trace generation (``trace/gen/*``), trace-driven cache sweeps
(``cache/*``), the GSPN event loop (``gspn/run/*``), the MP engine
(``mp/run``), and the supervised runner (``task/<experiment>/<shard>``).
Spans recorded inside pool workers ride back with the task's result
and are absorbed by the parent, so ``--jobs N`` runs record the same
spans as inline ones.
"""

from repro.obs.spans import SpanRecord, absorb, aggregate_stages, collect, span

__all__ = [
    "SpanRecord",
    "absorb",
    "aggregate_stages",
    "collect",
    "span",
]
