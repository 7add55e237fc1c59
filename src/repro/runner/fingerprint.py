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

Both, and :func:`shared_callgraph`, rest on one memo: a slot per package
root holding the tree state — the stat summary (relative path, size,
mtime) of every tracked file — and what has been derived from that
state so far: the whole-tree digest, the lazy import graph the slices
read (:func:`repro.check.callgraph.import_graph`), and the
whole-program call graph.  Each is filled on first use, and a slot
whose tree state has moved is replaced, so an edit mid-process is
picked up without :func:`invalidate`, which remains for tests and
long-lived embedders that want a hard reset.  The import graph parses
a module the first time a slice reaches it and walks its statements
only, so a process parses each module of the entries' import closures
once, however many entry points it slices, and another module only
when an entry's dotted name passes through it.  Slicing builds no call
graph: the whole-program one serves the ``lints``, ``deps`` and
``units`` check passes alone, and nothing may mutate it.

This memo lives and dies with the process.  What outlives it is the
result cache's slice file (:class:`repro.runner.ResultCache`): each
clean slice digest, filed under the whole-tree digest of the state it
was read from (``SliceFingerprint.tree``).  A digest is a pure function
of that state, so a later process on an unchanged tree reads the
digests back and parses no module at all.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the graph module loads lazily, on the first slice
    from repro.check.callgraph import CallGraph

@dataclass
class _Slot:
    """What one package root's current tree state has derived so far."""

    state: tuple
    digest: str | None = None
    scan: CallGraph | None = None  # lazy import graph, read by slices
    graph: CallGraph | None = None  # whole-program graph, for the checks


# root -> its slot, replaced when the tree state moves (see _tree_state).
# The memo may be hit from several threads of one process.  _LOCK is held
# across each fill, so concurrent misses wait for one computation instead
# of each paying for their own, and across a slice's whole analysis,
# because the import graph parses modules into itself as slices reach
# them: concurrent slices parse each module once.
_SLOTS: dict[Path, _Slot] = {}
_LOCK = threading.Lock()

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


def _slot(root: Path, state: tuple) -> _Slot:
    """``root``'s slot for tree ``state``; the caller holds ``_LOCK``."""
    slot = _SLOTS.get(root)
    if slot is None or slot.state != state:
        slot = _SLOTS[root] = _Slot(state)
    return slot


def invalidate(root: Path | None = None) -> None:
    """Drop memoized digests and graphs (for ``root``, or all roots
    when None)."""
    with _LOCK:
        if root is None:
            _SLOTS.clear()
        else:
            _SLOTS.pop(_package_root(root), None)


def shared_callgraph(root: Path | None = None) -> "CallGraph":
    """The static call graph of ``root``'s current tree.

    ``root`` defaults to the installed ``repro`` package directory.
    Memoized per (root, tree state) like the digests: a process builds
    the graph once, and an edited file makes the next call rebuild it.
    Callers share the returned graph, so they must not mutate it.
    """
    # The builder is looked up on its module at call time, never bound
    # here, so a wrapper installed on the module sees every build.
    from repro.check import callgraph

    root = _package_root(root)
    state = _tree_state(_tracked_sources(root))
    with _LOCK:
        slot = _slot(root, state)
        if slot.graph is None:
            slot.graph = callgraph.build_callgraph(root, root.name)
        return slot.graph


def _digest_files(entries: list[tuple[str, Path]]) -> str:
    digest = hashlib.sha256()
    for label, path in entries:
        digest.update(label.encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def code_fingerprint(root: Path | None = None) -> str:
    """Hex digest over all Python sources under ``root``.

    ``root`` defaults to the installed ``repro`` package directory.
    Memoized per (root, tree state): repeated calls skip re-hashing
    while the tree's stat summary is unchanged, and an edited file is
    noticed immediately.
    """
    root = _package_root(root)
    sources = _tracked_sources(root)
    state = _tree_state(sources)
    with _LOCK:
        slot = _slot(root, state)
        if slot.digest is None:
            slot.digest = _digest_files(sources)
        return slot.digest


@dataclass(frozen=True)
class SliceFingerprint:
    """Result of :func:`slice_fingerprint`.

    ``kind`` is ``"slice"`` when the digest covers only the entry
    point's dependency slice, or ``"tree"`` when analysis had to
    degrade to the whole-tree digest; ``reason`` says why (empty for a
    clean slice), ``modules`` lists the sliced module names (empty on
    degradation), and ``tree`` is the whole-tree digest of the state
    the slice was read from, which the result cache files it under.
    """

    digest: str
    kind: str  # "slice" | "tree"
    modules: tuple[str, ...] = ()
    reason: str = ""
    tree: str = field(default="", compare=False)  # provenance, not identity


def _degrade(root: Path, reason: str) -> SliceFingerprint:
    tree = code_fingerprint(root)
    return SliceFingerprint(digest=tree, kind="tree", reason=reason,
                            tree=tree)


def slice_fingerprint(entry: str, root: Path | None = None) -> SliceFingerprint:
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
                        f"'{package}'")
    sources = _tracked_sources(root)
    state = _tree_state(sources)

    from repro.check.callgraph import canonicalize, import_graph

    reason = ""
    with _LOCK:
        slot = _slot(root, state)
        if slot.digest is None:
            slot.digest = _digest_files(sources)
        tree = slot.digest
        if slot.scan is None:
            slot.scan = import_graph(root, package)
        graph = slot.scan
        try:
            # The entry must resolve to a function the graph knows
            # (following package-__init__ re-exports); its defining
            # module anchors the slice.  Anything else degrades.
            entry_fn = graph.function_for(canonicalize(graph, entry))
            if entry_fn is None:
                reason = f"entry point {entry} not found in the call graph"
            else:
                slice_modules = graph.module_slice(entry_fn.module)
                holes = graph.slice_holes(slice_modules)
                if holes:
                    mod, line, what = holes[0]
                    extra = f" (+{len(holes) - 1} more)" if len(holes) > 1 else ""
                    reason = (f"unresolvable edge in slice: {mod}:{line}: "
                              f"{what}{extra}")
                paths = [graph.modules[name].path for name in slice_modules]
        except Exception as exc:  # repro: allow(broad-except) — analysis failure must never break caching, only widen it
            reason = f"import scan failed: {exc!r}"
    if reason:  # degraded after _LOCK is released: code_fingerprint takes it
        return _degrade(root, reason)
    by_label = {label: path for label, path in sources}
    entries = sorted((path.relative_to(root).as_posix(), path)
                     for path in paths)
    entries.extend((f"@slicer/{label}", by_label[label])
                   for label in _SLICER_SALT if label in by_label)
    return SliceFingerprint(
        digest=_digest_files(entries),
        kind="slice",
        modules=tuple(sorted(slice_modules)),
        tree=tree,
    )
