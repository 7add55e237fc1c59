"""Content-addressed on-disk result cache.

Keys combine the call identity (``experiment:<experiment>/<shard>``,
see :class:`repro.runner.Task`), the canonicalized keyword arguments
(which include every seed and size parameter), and a code fingerprint,
so a cached entry can only ever be returned for the exact computation
that produced it.  :func:`repro.runner.run_tasks` is the one caller
that keys and stores results, so ``python -m repro``, a sweep and the
paper checks under ``benchmarks/`` share every entry.

The fingerprint component is per-entry-point: when the caller supplies
the task's entry point, the key uses
:func:`~repro.runner.fingerprint.slice_fingerprint` — a digest over
only the modules the entry point can transitively import — so editing
a module outside that slice (an exporter, a check pass, an unrelated
model family) leaves the entry valid.  Whenever the slice cannot be
established soundly (no entry point given, entry outside the package,
a dynamic import anywhere in the slice), the key falls back to the
whole-tree :func:`~repro.runner.fingerprint.code_fingerprint`, which
is the old always-safe behaviour.

Layout under the cache root (default ``.repro-cache``, overridable with
``$REPRO_CACHE_DIR`` or ``--cache-dir``)::

    .repro-cache/
      ab/
        abcdef....pkl     # pickled experiment result object
        abcdef....json    # metadata: call id, kwargs, fingerprint,
                          # wall time and event tallies of the miss run

Writes go through a per-writer temp file + atomic ``os.replace`` so a
crashed run never leaves a truncated entry behind, and — because temp
names are unique per (pid, thread, store) — two writers racing to
store the same key (two pool processes, or two threads of one
process) never interleave bytes in one temp file: the loser's
complete entry simply replaces the winner's complete entry.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def canonical_kwargs(kwargs: dict[str, Any]) -> str:
    """A stable textual form of ``kwargs`` for hashing (sorted JSON)."""
    return json.dumps(kwargs, sort_keys=True, default=repr)


def entry_key(call_id: str, kwargs: dict[str, Any], digest: str) -> str:
    """The key of ``call_id`` run on ``kwargs`` under code ``digest``."""
    payload = "\x1f".join([call_id, canonical_kwargs(kwargs), digest])
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheEntry:
    result: Any
    meta: dict[str, Any]


class ResultCache:
    """Pickle store addressed by ``(call id, kwargs, code fingerprint)``.

    ``fingerprint`` pins the whole-tree digest (computed when omitted)
    and ``package_root`` points the slicer at a package directory other
    than the installed ``repro``; both exist for tests.
    """

    def __init__(self, root: Path | str | None = None,
                 fingerprint: str | None = None, *,
                 package_root: Path | None = None) -> None:
        from repro.runner.fingerprint import code_fingerprint

        self.root = Path(root) if root is not None else default_cache_dir()
        self.package_root = package_root
        self.fingerprint = fingerprint or code_fingerprint(package_root)
        self._slices: dict[str, tuple[str, str]] = {}
        # The slice memo may be hit from several threads of one
        # process; a miss stats the tree and hashes the slice's files
        # (plus parsing the closure modules no earlier slice reached, once
        # per process and tree state), so the guard also stops
        # duplicate computes.
        self._slices_lock = threading.Lock()

    def fingerprint_for(self, entry: str | None) -> tuple[str, str]:
        """``(digest, kind)`` keying entries for ``entry``.

        ``kind`` is ``"slice"`` when the digest covers only the entry
        point's dependency slice, ``"tree"`` when it is the whole-tree
        fingerprint (no entry point, or the slice degraded — see
        :func:`~repro.runner.fingerprint.slice_fingerprint`).
        Degradation always lands on ``self.fingerprint`` so explicitly
        pinned fingerprints keep working.
        """
        if entry is None:
            return self.fingerprint, "tree"
        with self._slices_lock:
            if entry not in self._slices:
                from repro.runner.fingerprint import slice_fingerprint

                try:
                    sliced = slice_fingerprint(entry, root=self.package_root)
                except Exception:  # repro: allow(broad-except) — never let the slicer break caching; fall back to the safe whole-tree key
                    sliced = None
                if sliced is not None and sliced.kind == "slice":
                    self._slices[entry] = (sliced.digest, "slice")
                else:
                    self._slices[entry] = (self.fingerprint, "tree")
            return self._slices[entry]

    def _paths(self, key: str) -> tuple[Path, Path]:
        shard = self.root / key[:2]
        return shard / f"{key}.pkl", shard / f"{key}.json"

    def load(self, key: str) -> CacheEntry | None:
        pkl, meta = self._paths(key)
        if not pkl.exists():
            return None
        try:
            with pkl.open("rb") as fh:
                result = pickle.load(fh)
            info = json.loads(meta.read_text()) if meta.exists() else {}
        except Exception:  # repro: allow(broad-except) — any damage (truncation, unpicklable class, bad JSON) quarantines the entry and recomputes
            self._quarantine(pkl, meta)
            return None  # treat a damaged entry as a miss
        return CacheEntry(result=result, meta=info)

    def _quarantine(self, *paths: Path) -> None:
        """Move a damaged entry aside (``*.corrupt``) so it is never
        re-read, and count the event for the metrics surface."""
        from repro.common import tally

        for path in paths:
            try:
                if path.exists():
                    path.replace(path.with_suffix(path.suffix + ".corrupt"))
            except OSError:
                pass  # a second reader won the rename race; entry is gone either way
        tally.add("cache_corrupt_entries", 1)

    # Distinguishes concurrent stores from the *same* thread re-entering
    # (impossible today, cheap to rule out forever) and, combined with
    # pid + thread id, makes every in-flight temp file name unique.
    _store_counter = itertools.count()

    def _tmp_suffix(self) -> str:
        """A temp-file suffix no other in-flight writer can collide with.

        ``os.getpid()`` alone is not enough: two *threads* of one
        process sharing a temp path interleave their writes into a torn
        file that the next reader quarantines.
        """
        token = next(self._store_counter)
        return f".tmp-{os.getpid()}-{threading.get_ident()}-{token}"

    def store(self, key: str, result: Any, meta: dict[str, Any]) -> None:
        pkl, meta_path = self._paths(key)
        pkl.parent.mkdir(parents=True, exist_ok=True)
        tmp = pkl.with_suffix(self._tmp_suffix())
        with tmp.open("wb") as fh:
            pickle.dump(result, fh)
        os.replace(tmp, pkl)  # atomic: readers see the old or new entry, never a mix
        tmp_meta = meta_path.with_suffix(f"{self._tmp_suffix()}.meta")
        tmp_meta.write_text(json.dumps(meta, sort_keys=True, default=repr))
        os.replace(tmp_meta, meta_path)
