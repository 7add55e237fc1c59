"""Span exporter: Chrome trace-event JSON.

:func:`chrome_trace` / :func:`write_chrome_trace` turn the
:class:`~repro.obs.spans.SpanRecord` stream of a ``--trace`` run into
the Trace Event Format (complete ``"ph": "X"`` events) that
``chrome://tracing`` and Perfetto load directly.  Each process becomes
one pid/tid track; nesting falls out of the timestamps.  The per-stage
rollup of the same records is :func:`repro.obs.aggregate_stages`, which
the run metrics (``--metrics-out``) embed as ``stages``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.spans import SpanRecord


def chrome_trace(records: list[SpanRecord]) -> dict:
    """The records as a Trace Event Format document (JSON-ready dict)."""
    events = []
    for record in sorted(records, key=lambda r: (r.pid, r.start_ns)):
        events.append({
            "name": record.name,
            "cat": record.name.split("/", 1)[0],
            "ph": "X",
            "ts": record.start_ns / 1000.0,  # microseconds
            "dur": record.dur_ns / 1000.0,
            "pid": record.pid,
            "tid": record.pid,
            "args": {name: record.counters[name]
                     for name in sorted(record.counters)},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Path | str, records: list[SpanRecord]) -> None:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(records), indent=1) + "\n")

