"""Code fingerprinting for cache invalidation.

A cached experiment result is only valid for the code that produced it.
Two fingerprints implement that contract:

- :func:`code_fingerprint` — SHA-256 over the names and contents of
  every ``*.py`` file under the ``repro`` package (plus, in a checkout,
  the sibling ``scripts/`` tree whose CI gates vouch for results).
  *Any* source change invalidates everything.  Coarse, but always safe.
- :func:`slice_fingerprint` — SHA-256 over only the transitive
  dependency slice of one experiment's registered entry point, computed
  from the static import graph of :mod:`repro.check.callgraph`.  An
  edit to a module outside the slice (an exporter, another check pass,
  an unrelated model family) leaves the experiment's cached results
  valid.  The narrowing is only used when it is provably sound: if the
  slice contains any statically unresolvable edge — a dynamic import,
  an intra-package import the analyzer cannot bind — the result
  *degrades* to the whole-tree digest and says so (``kind="tree"``),
  which is exactly the pre-slicing behaviour.

Both are memoized per (root, tree state), where the tree state is the
stat summary (relative path, size, mtime) of every tracked file — so an
edit mid-process is picked up without :func:`invalidate`, which remains
for tests and long-lived embedders that want a hard reset.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path

# digest caches keyed by (root, tree-state); see _tree_state().
_CACHE: dict[tuple, str] = {}
_SLICE_CACHE: dict[tuple, "SliceFingerprint"] = {}
# Both memos may be hit from several threads of one process; the lock
# covers lookups and stores only — digesting runs outside it, so a
# concurrent miss may compute twice but always stores equal values.
_MEMO_LOCK = threading.Lock()

# Files hashed into every slice as a version salt: a change to the
# slicer itself (graph construction or this module) must invalidate
# slice-keyed entries, because the old digests may rest on analysis
# bugs the change just fixed.  Paths are package-relative.
_SLICER_SALT = ("check/callgraph.py", "runner/fingerprint.py")


def _package_root(root: Path | None) -> Path:
    if root is None:
        import repro

        root = Path(repro.__file__).parent
    return Path(root).resolve()


def _tracked_sources(root: Path) -> list[tuple[str, Path]]:
    """``(label, path)`` pairs hashed into the fingerprint, sorted.

    Labels are paths relative to ``root``; the repo-checkout ``scripts/``
    tree (present only when ``root`` sits at ``<repo>/src/repro``) is
    labelled with an ``@scripts/`` prefix so it can never collide with a
    package-relative path.
    """
    files = [
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    ]
    scripts = root.parent.parent / "scripts"
    if root.parent.name == "src" and scripts.is_dir():
        files.extend(
            (f"@scripts/{path.relative_to(scripts).as_posix()}", path)
            for path in scripts.rglob("*.py")
            if "__pycache__" not in path.parts
        )
    return sorted(files)


def _tree_state(sources: list[tuple[str, Path]]) -> tuple:
    """Stat summary of the tracked files, used as the memo key.

    Hashing is skipped only while every tracked file keeps its (path,
    size, mtime); an edit mid-process changes the state and therefore
    misses the memo — no stale digests, no explicit invalidation
    needed.
    """
    state = []
    for label, path in sources:
        try:
            st = path.stat()
        except OSError:
            state.append((label, -1, -1))
            continue
        state.append((label, st.st_size, st.st_mtime_ns))
    return tuple(state)


def invalidate(root: Path | None = None) -> None:
    """Drop memoized digests (for ``root``, or all roots when None)."""
    with _MEMO_LOCK:
        if root is None:
            _CACHE.clear()
            _SLICE_CACHE.clear()
            return
        root = _package_root(root)
        for memo in (_CACHE, _SLICE_CACHE):
            for key in [k for k in memo if k[0] == root]:
                del memo[key]


def _digest_files(entries: list[tuple[str, Path]]) -> str:
    digest = hashlib.sha256()
    for label, path in entries:
        digest.update(label.encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def code_fingerprint(root: Path | None = None, *, use_cache: bool = True) -> str:
    """Hex digest over all Python sources under ``root``.

    ``root`` defaults to the installed ``repro`` package directory.
    Memoized per (root, tree state): repeated calls skip re-hashing
    while the tree's stat summary is unchanged, and an edited file is
    noticed immediately.
    """
    root = _package_root(root)
    sources = _tracked_sources(root)
    key = (root, _tree_state(sources)) if use_cache else None
    if key is not None:
        with _MEMO_LOCK:
            cached = _CACHE.get(key)
        if cached is not None:
            return cached
    value = _digest_files(sources)
    if key is not None:
        with _MEMO_LOCK:
            _CACHE[key] = value
    return value


@dataclass(frozen=True)
class SliceFingerprint:
    """Result of :func:`slice_fingerprint`.

    ``kind`` is ``"slice"`` when the digest covers only the entry
    point's dependency slice, or ``"tree"`` when analysis had to
    degrade to the whole-tree digest; ``reason`` says why (empty for a
    clean slice), and ``modules`` lists the sliced module names
    (empty on degradation).
    """

    digest: str
    kind: str  # "slice" | "tree"
    modules: tuple[str, ...] = ()
    reason: str = ""


def _degrade(root: Path, reason: str, *, use_cache: bool) -> SliceFingerprint:
    return SliceFingerprint(
        digest=code_fingerprint(root, use_cache=use_cache),
        kind="tree",
        reason=reason,
    )


def slice_fingerprint(entry: str, root: Path | None = None, *,
                      use_cache: bool = True) -> SliceFingerprint:
    """Fingerprint of ``entry``'s transitive dependency slice.

    ``entry`` is a dotted function name (an experiment registry entry
    point, e.g. ``repro.analysis.experiments.table1``); ``root`` is the
    package directory to analyze, defaulting to the installed ``repro``
    package.  The slice is the import closure of the entry's module —
    every module whose body executes when the entry's module is
    imported, at module granularity, ancestors included — which
    over-approximates what the entry can possibly run and is therefore
    a safe narrowing of the whole-tree hash.

    Degrades to the whole-tree digest (``kind="tree"``, with a
    ``reason``) when the entry lies outside the package, its module is
    unknown to the graph, or the slice contains a statically
    unresolvable edge.  Never raises for analysis-side problems.
    """
    root = _package_root(root)
    package = root.name
    if not entry.startswith(package + "."):
        return _degrade(root, f"entry point {entry} is outside package "
                        f"'{package}'", use_cache=use_cache)
    sources = _tracked_sources(root)
    key = (root, _tree_state(sources), entry) if use_cache else None
    if key is not None:
        with _MEMO_LOCK:
            cached = _SLICE_CACHE.get(key)
        if cached is not None:
            return cached

    from repro.check.callgraph import build_callgraph, canonicalize

    try:
        graph = build_callgraph(root, package)
    except Exception as exc:  # repro: allow(broad-except) — analysis failure must never break caching, only widen it
        return _degrade(root, f"call-graph construction failed: {exc!r}",
                        use_cache=use_cache)

    # The entry must resolve to a function the graph actually knows
    # (following package-__init__ re-exports); its defining module
    # anchors the slice.  Anything else degrades.
    entry_fn = graph.function_for(canonicalize(graph, entry))
    if entry_fn is None:
        result = _degrade(root, f"entry point {entry} not found in the "
                          f"call graph", use_cache=use_cache)
    else:
        slice_modules = graph.module_slice(entry_fn.module)
        holes = graph.slice_holes(slice_modules)
        if holes:
            mod, line, what = holes[0]
            extra = f" (+{len(holes) - 1} more)" if len(holes) > 1 else ""
            result = _degrade(
                root, f"unresolvable edge in slice: {mod}:{line}: "
                f"{what}{extra}", use_cache=use_cache)
        else:
            by_label = {label: path for label, path in sources}
            entries = sorted(
                (graph.modules[name].path.relative_to(root).as_posix(),
                 graph.modules[name].path)
                for name in slice_modules
            )
            entries.extend(
                (f"@slicer/{label}", by_label[label])
                for label in _SLICER_SALT if label in by_label
            )
            result = SliceFingerprint(
                digest=_digest_files(entries),
                kind="slice",
                modules=tuple(sorted(slice_modules)),
            )
    if key is not None:
        with _MEMO_LOCK:
            _SLICE_CACHE[key] = result
    return result
