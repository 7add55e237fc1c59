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

Slicing parses the entry's import closure, so the clean slice digests
are kept in one small file per tree state, named by the whole-tree
digest: a new process on an unchanged tree reads them back and calls
the slicer only for entries the file lacks.  A slice digest is a pure
function of the tree's contents and any edit changes the file name,
so the file can never hand out a digest of other code.  A degraded
entry is not filed; it resolves to the cache's own fingerprint.

Layout under the cache root (default ``.repro-cache``, overridable with
``$REPRO_CACHE_DIR`` or ``--cache-dir``)::

    .repro-cache/
      ab/
        abcdef....pkl     # pickled experiment result object
        abcdef....json    # metadata: call id, kwargs, fingerprint,
                          # wall time and event tallies of the miss run
      slices/
        <tree digest>.json  # {entry point: slice digest} for that tree

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

from repro.common import tally

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
        # The slice file is named by the real tree digest, even when the
        # caller pins ``fingerprint``: the slices are read off that tree.
        self._tree = code_fingerprint(package_root)
        self.fingerprint = fingerprint or self._tree
        self._slices: dict[str, tuple[str, str]] = {}
        self._slices_file = self.root / "slices" / f"{self._tree}.json"
        self._filed: dict[str, str] | None = None  # its contents, once read
        # The slice memo may be hit from several threads of one
        # process; a miss reads the slice file or derives the slice
        # (stat the tree, hash the slice's files, parse the closure
        # modules no earlier slice reached), so the guard also stops
        # duplicate computes and interleaved rewrites of the file.
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
                self._slices[entry] = self._slice(entry)
            return self._slices[entry]

    def _slice(self, entry: str) -> tuple[str, str]:
        """Read ``entry``'s slice digest from the slice file, or derive
        it and file it there; the caller holds ``_slices_lock``."""
        if self._filed is None:
            self._filed = self._read_slices()
        if entry in self._filed:
            return self._filed[entry], "slice"
        # Looked up at call time, so a wrapper installed on the module
        # sees every slice computed.
        from repro.runner.fingerprint import slice_fingerprint

        tally.add("slices_computed", 1)
        try:
            sliced = slice_fingerprint(entry, root=self.package_root)
        except Exception:  # repro: allow(broad-except) — never let the slicer break caching; fall back to the safe whole-tree key
            return self.fingerprint, "tree"
        if sliced.kind != "slice":
            return self.fingerprint, "tree"
        if sliced.tree == self._tree:  # not read off a tree edited since
            self._filed[entry] = sliced.digest
            self._write_slices()
        return sliced.digest, "slice"

    def _read_slices(self) -> dict[str, str]:
        """The slice file's ``{entry: digest}``; empty when it is
        missing or damaged (the next filed slice rewrites it whole)."""
        try:
            filed = json.loads(self._slices_file.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(filed, dict) or not all(
                isinstance(digest, str) for digest in filed.values()):
            return {}
        return filed

    def _write_slices(self) -> None:
        path = self._slices_file
        tmp = path.with_suffix(self._tmp_suffix())
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(self._filed, sort_keys=True))
            os.replace(tmp, path)  # atomic, like store()
        except OSError:
            pass  # an unwritable directory still keys; the next process re-slices

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
