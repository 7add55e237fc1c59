"""Content-addressed on-disk result cache.

Keys combine the call identity (experiment/shard or function qualname),
the canonicalized keyword arguments (which include every seed and size
parameter), and a code fingerprint, so a cached entry can only ever be
returned for the exact computation that produced it.

The fingerprint component is per-entry-point: when the caller supplies
the experiment's registered entry point, the key uses
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

import itertools
import json
import os
import pickle
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def canonical_kwargs(kwargs: dict[str, Any]) -> str:
    """A stable textual form of ``kwargs`` for hashing (sorted JSON)."""
    return json.dumps(kwargs, sort_keys=True, default=repr)


@dataclass
class CacheEntry:
    result: Any
    meta: dict[str, Any]


class ResultCache:
    """Pickle store addressed by ``(call id, kwargs, code fingerprint)``.

    ``fingerprint`` pins the whole-tree digest (computed when omitted);
    ``slicing`` enables per-entry-point slice keying (see module
    docstring) and ``package_root`` points the slicer at a package
    directory other than the installed ``repro`` (used by tests).
    """

    def __init__(self, root: Path | str | None = None,
                 fingerprint: str | None = None, *,
                 slicing: bool = True,
                 package_root: Path | None = None) -> None:
        from repro.runner.fingerprint import code_fingerprint

        self.root = Path(root) if root is not None else default_cache_dir()
        self.package_root = package_root
        self.fingerprint = fingerprint or code_fingerprint(package_root)
        self.slicing = slicing
        self._slices: dict[str, tuple[str, str]] = {}
        # The slice memo may be hit from several threads of one
        # process; the slicer behind a miss is a whole call-graph
        # build, so the guard also stops duplicate computes.
        self._slices_lock = threading.Lock()

    def fingerprint_for(self, entry: str | None) -> tuple[str, str]:
        """``(digest, kind)`` keying entries for ``entry``.

        ``kind`` is ``"slice"`` when the digest covers only the entry
        point's dependency slice, ``"tree"`` when it is the whole-tree
        fingerprint (no entry point, slicing off, or the slice degraded
        — see :func:`~repro.runner.fingerprint.slice_fingerprint`).
        Degradation always lands on ``self.fingerprint`` so explicitly
        pinned fingerprints keep working.
        """
        if not self.slicing or entry is None:
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

    def key(self, call_id: str, kwargs: dict[str, Any],
            entry: str | None = None) -> str:
        import hashlib

        digest, _ = self.fingerprint_for(entry)
        payload = "\x1f".join([call_id, canonical_kwargs(kwargs), digest])
        return hashlib.sha256(payload.encode()).hexdigest()

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


def call_id_for(fn: Callable) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


def cached_call(fn: Callable, kwargs: dict[str, Any],
                cache: ResultCache | None, args: tuple = ()) -> Any:
    """Run ``fn(*args, **kwargs)`` through the cache (``cache=None``
    disables).

    Used by the benchmark harness so tier-2 suites reuse results the CLI
    (or a previous benchmark run) already computed.  Only cache
    module-level functions whose arguments fully determine the result —
    closures capturing hidden state belong outside the cache.
    """
    from repro.common import tally

    if cache is None:
        return fn(*args, **kwargs)
    call_id = call_id_for(fn)
    call_kwargs = {"*args": list(args), **kwargs} if args else kwargs
    key = cache.key(call_id, call_kwargs, entry=call_id)
    entry = cache.load(key)
    if entry is not None:
        return entry.result
    before = tally.snapshot()
    started = time.perf_counter()  # repro: allow(wall-clock)
    result = fn(*args, **kwargs)
    digest, kind = cache.fingerprint_for(call_id)
    cache.store(key, result, {
        "call_id": call_id,
        "kwargs": canonical_kwargs(call_kwargs),
        "fingerprint": digest,
        "fingerprint_kind": kind,
        "wall_s": time.perf_counter() - started,  # repro: allow(wall-clock)
        "tallies": tally.since(before),
    })
    return result
