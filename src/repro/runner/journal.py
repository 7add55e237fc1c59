"""Run journal: which tasks an (interrupted) run already finished.

One append-only JSONL file per code fingerprint under the cache root::

    .repro-cache/
      journal/
        <fingerprint>.jsonl    # {"label", "status", "key"}

Each completed task appends one record the moment it settles —
``done`` for a task whose result landed in the cache, ``quarantined``
for one that failed — and the file is flushed per record, so a run
killed mid-sweep leaves a faithful journal behind.

``--resume`` reads the journal back and serves journaled-``done``
tasks from the result cache instead of re-executing them.  Staleness
is impossible by construction: the journal file is named by the code
fingerprint and every record carries the task's cache key (which
hashes call id + kwargs + fingerprint), so a journal written by old
code, or for different parameters, simply never matches — resume
falls through to normal execution.

A fresh (non-resume) run truncates the fingerprint's journal first, so
the journal always describes exactly one logical run.

Interrupts: every record is appended and flushed the moment it is
written, so *any* death — Ctrl-C, SIGTERM, SIGKILL — leaves a faithful
journal of everything that settled.  What SIGTERM needs on top is the
*orderly teardown* Ctrl-C gets for free (terminate live workers,
report partial metrics): :func:`sigterm_interrupts` converts SIGTERM
into ``KeyboardInterrupt`` for the duration of a run, so ``kill
<pid>`` journals a run or a sweep exactly the way Ctrl-C does.
"""

from __future__ import annotations

import json
import signal
import threading
from contextlib import contextmanager
from pathlib import Path

JOURNAL_DIR = "journal"

STATUS_DONE = "done"
STATUS_QUARANTINED = "quarantined"


@contextmanager
def sigterm_interrupts():
    """Raise ``KeyboardInterrupt`` on SIGTERM while the context is open.

    Installed by ``repro all`` and ``repro sweep`` around a run, so
    SIGTERM takes the same flush-journal-and-unwind path as Ctrl-C
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
        # raise, no locks, no I/O buffers.  The actual journal flush
        # runs in the unwound frame, outside handler context.
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class RunJournal:
    """Append-only per-fingerprint completion log under the cache root."""

    def __init__(self, root: Path | str, fingerprint: str) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.path = self.root / JOURNAL_DIR / f"{fingerprint}.jsonl"
        # One lock per journal keeps each appended line whole when
        # several threads of one process record concurrently.
        self._lock = threading.Lock()

    def begin(self, *, resume: bool) -> None:
        """Start a run: keep the journal when resuming, truncate it
        otherwise."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not resume:
            self.path.write_text("")

    def record(self, label: str, *, status: str, key: str) -> None:
        """Append one settled task; flushed (and the line complete)
        before returning so an interrupt cannot lose it."""
        entry = {"label": label, "status": status, "key": key}
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
                fh.flush()

    def entries(self) -> list[dict]:
        """Every parseable record, oldest first (damaged trailing lines
        from a hard kill are skipped, not fatal)."""
        if not self.path.exists():
            return []
        records = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a killed run
            if isinstance(record, dict):
                records.append(record)
        return records

    def completed(self) -> dict[str, str]:
        """``label -> cache key`` for tasks journaled ``done`` (latest
        record per label wins, so a quarantine followed by a successful
        rerun on resume counts as done)."""
        done: dict[str, str] = {}
        for record in self.entries():
            label = record.get("label", "")
            if record.get("status") == STATUS_DONE and record.get("key"):
                done[label] = record["key"]
            else:
                # A quarantine (or unknown status) un-does the label.
                done.pop(label, None)
        return done
