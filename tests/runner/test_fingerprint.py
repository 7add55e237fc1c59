"""Code fingerprinting: stability, invalidation, dependency slices."""

import textwrap
from pathlib import Path

import pytest

from repro.runner import (
    code_fingerprint,
    fingerprint,
    invalidate,
    slice_fingerprint,
)
from repro.runner.fingerprint import SliceFingerprint, shared_callgraph


def _tree(tmp_path: Path) -> Path:
    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "a.py").write_text("A = 1\n")
    (root / "sub" / "b.py").write_text("B = 2\n")
    return root


def _fresh(root: Path) -> str:
    """``root``'s whole-tree digest, recomputed past the memo."""
    invalidate(root)
    return code_fingerprint(root)


def _sliceable(tmp_path: Path) -> Path:
    """A package whose entry slice excludes exporter.py."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").touch()
    (root / "entry.py").write_text(textwrap.dedent("""
        from pkg.model import simulate

        def experiment():
            return simulate()
    """))
    (root / "model.py").write_text("def simulate():\n    return 42\n")
    (root / "exporter.py").write_text("FORMAT = 'json'\n")
    return root


class TestCodeFingerprint:
    def test_deterministic(self, tmp_path):
        root = _tree(tmp_path)
        first = _fresh(root)
        second = _fresh(root)
        assert first == second
        assert len(first) == 64  # sha256 hex

    def test_content_change_invalidates(self, tmp_path):
        root = _tree(tmp_path)
        before = _fresh(root)
        (root / "sub" / "b.py").write_text("B = 3\n")
        assert _fresh(root) != before

    def test_new_file_invalidates(self, tmp_path):
        root = _tree(tmp_path)
        before = _fresh(root)
        (root / "c.py").write_text("")
        assert _fresh(root) != before

    def test_rename_invalidates(self, tmp_path):
        root = _tree(tmp_path)
        before = _fresh(root)
        (root / "a.py").rename(root / "z.py")
        assert _fresh(root) != before

    def test_pycache_ignored(self, tmp_path):
        root = _tree(tmp_path)
        before = _fresh(root)
        cachedir = root / "__pycache__"
        cachedir.mkdir()
        (cachedir / "a.cpython-311.py").write_text("junk")
        assert _fresh(root) == before

    def test_package_default(self):
        # Fingerprinting the installed package works and is cached.
        assert code_fingerprint() == code_fingerprint()

    def test_memo_notices_midprocess_edit(self, tmp_path):
        # Regression: the old memo was keyed by root alone, so a file
        # edited after the first call kept serving the stale digest for
        # the life of the process.  The stat-summary key must miss.
        root = _tree(tmp_path)
        before = code_fingerprint(root)  # memoized
        (root / "a.py").write_text("A = 1  # edited, longer line\n")
        assert code_fingerprint(root) != before

    def test_invalidate_clears_the_memo(self, tmp_path):
        root = _tree(tmp_path)
        first = code_fingerprint(root)
        invalidate(root)
        assert code_fingerprint(root) == first  # recomputed, same tree
        invalidate()  # all-roots form is accepted too
        assert code_fingerprint(root) == first


class TestSliceFingerprint:
    def test_clean_entry_yields_slice_kind(self, tmp_path):
        root = _sliceable(tmp_path)
        sliced = slice_fingerprint("pkg.entry.experiment", root)
        assert sliced.kind == "slice"
        assert sliced.reason == ""
        assert set(sliced.modules) == {"pkg", "pkg.entry", "pkg.model"}
        assert len(sliced.digest) == 64

    def test_edit_outside_slice_keeps_digest(self, tmp_path):
        root = _sliceable(tmp_path)
        before = slice_fingerprint("pkg.entry.experiment", root)
        tree_before = code_fingerprint(root)
        (root / "exporter.py").write_text("FORMAT = 'csv'  # changed\n")
        after = slice_fingerprint("pkg.entry.experiment", root)
        assert after.digest == before.digest
        # ... while the whole-tree hash does move.
        assert code_fingerprint(root) != tree_before

    def test_edit_inside_slice_changes_digest(self, tmp_path):
        root = _sliceable(tmp_path)
        before = slice_fingerprint("pkg.entry.experiment", root)
        (root / "model.py").write_text("def simulate():\n    return 43\n")
        after = slice_fingerprint("pkg.entry.experiment", root)
        assert after.kind == "slice"
        assert after.digest != before.digest

    def test_dynamic_import_degrades_to_tree(self, tmp_path):
        root = _sliceable(tmp_path)
        (root / "model.py").write_text(
            "import importlib\n"
            "def simulate():\n"
            "    return importlib.import_module('json')\n"
        )
        sliced = slice_fingerprint("pkg.entry.experiment", root)
        assert sliced.kind == "tree"
        assert "dynamic import" in sliced.reason
        assert sliced.digest == code_fingerprint(root)
        assert sliced.modules == ()

    def test_entry_outside_package_degrades_to_tree(self, tmp_path):
        root = _sliceable(tmp_path)
        sliced = slice_fingerprint("tests.something.fn", root)
        assert sliced.kind == "tree"
        assert "outside package" in sliced.reason
        assert sliced.digest == code_fingerprint(root)

    def test_unknown_entry_module_degrades_to_tree(self, tmp_path):
        root = _sliceable(tmp_path)
        sliced = slice_fingerprint("pkg.ghost.fn", root)
        assert sliced.kind == "tree"
        assert sliced.digest == code_fingerprint(root)

    def test_real_experiment_slices_exclude_exporters_and_checks(self):
        # The headline behaviour: obs/export.py and the check passes are
        # outside every experiment's slice, so editing them cannot
        # invalidate cached GSPN results.
        sliced = slice_fingerprint("repro.analysis.experiments.table1")
        assert sliced.kind == "slice", sliced.reason
        assert "repro.analysis.experiments" in sliced.modules
        assert "repro.obs.export" not in sliced.modules
        assert "repro.check.gspn" not in sliced.modules
        assert "repro.check.deps" not in sliced.modules
        assert "repro.__main__" not in sliced.modules


class TestGraphMemo:
    """One lazy import scan per package root and tree state, and no
    call-graph build: a slice parses only its entry's import closure."""

    def test_slices_of_many_entries_parse_each_module_once(
            self, tmp_path, callgraph_builds, module_parses):
        root = _sliceable(tmp_path)
        first = slice_fingerprint("pkg.entry.experiment", root)
        second = slice_fingerprint("pkg.model.simulate", root)
        again = slice_fingerprint("pkg.entry.experiment", root)
        assert first.kind == second.kind == "slice"
        assert again == first
        assert callgraph_builds == []
        # exporter.py is outside both closures: never parsed.
        assert sorted(module_parses) == sorted(
            root / name for name in ("__init__.py", "entry.py", "model.py"))

    def test_midprocess_edit_replaces_the_graph(self, tmp_path,
                                                callgraph_builds,
                                                module_parses):
        root = _sliceable(tmp_path)
        slots_before = len(fingerprint._SLOTS)
        sliced = slice_fingerprint("pkg.entry.experiment", root)
        for n in range(3):
            (root / "model.py").write_text(
                "def simulate():\n    return 42\n"
                f"def extra_{n}():\n    return {n}\n")
            resliced = slice_fingerprint("pkg.entry.experiment", root)
            assert resliced.kind == "slice"
            assert resliced.digest != sliced.digest
            scan = fingerprint._SLOTS[root.resolve()].scan
            assert f"pkg.model.extra_{n}" in scan.functions
            sliced = resliced
        # A new import must widen the slice: a stale scan would not.
        (root / "entry.py").write_text(
            "import pkg.exporter\n"
            "from pkg.model import simulate\n"
            "def experiment():\n    return simulate()\n")
        widened = slice_fingerprint("pkg.entry.experiment", root)
        assert "pkg.exporter" in widened.modules
        assert callgraph_builds == []
        # Five tree states, each rescanning the closure once.
        assert module_parses.count(root / "model.py") == 5
        assert module_parses.count(root / "exporter.py") == 1
        # One slot per root: the edits replaced it, never added one.
        assert len(fingerprint._SLOTS) == slots_before + 1

    def test_invalidate_clears_the_graph(self, tmp_path, callgraph_builds,
                                         module_parses):
        root = _sliceable(tmp_path)
        for clear in (lambda: invalidate(root), invalidate):
            slice_fingerprint("pkg.entry.experiment", root)
            shared_callgraph(root)
            clear()
            assert root.resolve() not in fingerprint._SLOTS
        slice_fingerprint("pkg.entry.experiment", root)
        # Three scans and the two builds of shared_callgraph.
        assert module_parses.count(root / "entry.py") == 3 + 2
        assert len(callgraph_builds) == 2

    def test_concurrent_slices_parse_each_module_once(self, tmp_path,
                                                      module_parses):
        import sys
        import threading

        root = _sliceable(tmp_path)
        entries = ["pkg.entry.experiment", "pkg.model.simulate"] * 2
        results = [None] * len(entries)
        barrier = threading.Barrier(len(entries))

        def work(i):
            barrier.wait()
            results[i] = slice_fingerprint(entries[i], root)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(entries))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results[0] == results[2] and results[1] == results[3]
        assert sorted(module_parses) == sorted(
            root / name for name in ("__init__.py", "entry.py", "model.py"))

    def test_keying_table1_parses_neither_check_cli_nor_sweep(
            self, tmp_path, callgraph_builds, module_parses):
        from repro.analysis import run_experiments
        from repro.runner import ResultCache

        invalidate()
        _, metrics = run_experiments(["table1"], jobs=1,
                                     cache=ResultCache(tmp_path / "cache"))
        assert {task.fingerprint_kind for task in metrics.tasks} == {"slice"}
        parsed = {path.as_posix() for path in module_parses}
        assert any(p.endswith("repro/analysis/experiments.py")
                   for p in parsed)
        assert not any(p.endswith("repro/check/cli.py") or "repro/sweep/" in p
                       for p in parsed), sorted(parsed)
        assert callgraph_builds == []


class TestShippedSliceEquivalence:
    def test_memoized_slices_equal_fresh_ones(self, callgraph_builds,
                                              module_parses):
        # Every registry entry point and the sweep point slice from one
        # scan to exactly what an uncached computation gives, and that
        # scan parses each module of their closures once.
        from repro.analysis.registry import entry_points

        entries = sorted({*entry_points().values(),
                          "repro.sweep.points.icache_point"})
        invalidate()
        memoized = {entry: slice_fingerprint(entry) for entry in entries}
        scanned = list(module_parses)
        closure = set().union(*(memoized[e].modules for e in entries))
        graph = fingerprint._SLOTS[fingerprint._package_root(None)].scan
        assert sorted(scanned) == sorted(graph.modules[name].path
                                         for name in closure)
        for entry in entries:
            invalidate()
            fresh = slice_fingerprint(entry)
            got = memoized[entry]
            assert (got.digest, got.kind, got.reason, got.modules) == (
                fresh.digest, fresh.kind, fresh.reason, fresh.modules), entry
        assert callgraph_builds == []


# A package exercising every import form the slice must follow.  The
# entry module pkg.app.main imports the leaf modules named after where
# the import sits; pkg.outside is imported by nothing.
_SCAN_TREE = {
    "__init__.py": "",
    "app/__init__.py": "from .main import run as start\n",
    "app/main.py": """\
        import json
        import pkg.top
        from pkg import by_from
        from pkg.tools import helper
        from pkg.stars import *
        from . import sibling
        from ..util import fmt

        def run():
            from pkg.in_func import f
            return f()

        class Runner:
            from pkg.in_class import C

            def __init__(self):
                import pkg.in_method

        if json:
            import pkg.in_if
        try:
            import pkg.in_try
        except ImportError:
            import pkg.in_except
        else:
            import pkg.in_else
        finally:
            import pkg.in_finally
        with open(__file__) as fh:
            import pkg.in_with
        match fh:
            case None:
                import pkg.in_match
            case _:
                pass
        """,
    "api/__init__.py": "from pkg.api.facade import run\n",
    "api/facade.py": "from pkg.app.main import run\n",
    # pkg.clash.name is both a function of clash/__init__.py and a module.
    "clash/__init__.py": "def name():\n    return 1\n",
    "clash/name.py": "import pkg.top\n",
    **{f"{leaf}.py": "def f():\n    return 1\nC = helper = fmt = f\n"
       for leaf in ("top", "by_from", "tools", "stars", "util", "in_func",
                    "in_class", "in_method", "in_if", "in_try", "in_except",
                    "in_else", "in_finally", "in_with", "in_match",
                    "outside")},
    "app/sibling.py": "",
}

_SCAN_VARIANTS = {
    "clean": {},
    "import_module": {"in_func.py": "import importlib\n"
                      "def f():\n    return importlib.import_module('json')\n"},
    "aliased_import_module": {"in_class.py": "from importlib import "
                              "import_module as im\nC = im('json')\n"},
    "dunder_import": {"in_match.py": "def f():\n    return __import__('json')\n"},
    "reload": {"in_with.py": "import importlib, json\n"
               "importlib.reload(json)\n"},
    # The parser NFKC-normalises identifiers: this is importlib too.
    "fullwidth_importlib": {"in_if.py": "import \uff49\uff4d\uff50\uff4f"
                            "\uff52\uff54\uff4c\uff49\uff42 as il\n"
                            "il.import_module('json')\n"},
    "unresolved": {"util.py": "from pkg.nowhere import g\nfmt = g\n"},
    # The reason names the first hole in the full visitor's walk order.
    "unresolved_in_try_branches": {"in_try.py": "try:\n    pass\n"
                                   "except ImportError:\n"
                                   "    from pkg.nowhere_a import x\n"
                                   "finally:\n"
                                   "    from pkg.nowhere_b import y\n"},
    "unparseable_inside": {"in_else.py": "def f(:\n"},
    "unparseable_outside": {"outside.py": "def f(:\n"},
    "dynamic_outside": {"outside.py": "import importlib\n"
                        "importlib.import_module('json')\n"},
}

_SCAN_ENTRIES = ("pkg.app.main.run", "pkg.app.main.Runner", "pkg.app.main",
                 "pkg.app.start", "pkg.api.run", "pkg.clash.name",
                 "pkg.clash", "pkg.tools.helper", "pkg.ghost.fn")


def _full_graph_slice(entry: str, root: Path) -> SliceFingerprint:
    """The slice fingerprint as derived from the whole-program graph."""
    from repro.check.callgraph import build_callgraph, canonicalize
    from repro.runner.fingerprint import (
        _SLICER_SALT,
        _digest_files,
        _tracked_sources,
    )

    root = root.resolve()
    tree = code_fingerprint(root)
    graph = build_callgraph(root)
    entry_fn = graph.function_for(canonicalize(graph, entry))
    if entry_fn is None:
        return SliceFingerprint(tree, "tree", reason=f"entry point {entry} "
                                "not found in the call graph")
    modules = graph.module_slice(entry_fn.module)
    holes = graph.slice_holes(modules)
    if holes:
        mod, line, what = holes[0]
        extra = f" (+{len(holes) - 1} more)" if len(holes) > 1 else ""
        return SliceFingerprint(tree, "tree", reason="unresolvable edge in "
                                f"slice: {mod}:{line}: {what}{extra}")
    by_label = dict(_tracked_sources(root))
    files = sorted((graph.modules[name].path.relative_to(root).as_posix(),
                    graph.modules[name].path) for name in modules)
    files += [(f"@slicer/{label}", by_label[label])
              for label in _SLICER_SALT if label in by_label]
    return SliceFingerprint(_digest_files(files), "slice",
                            tuple(sorted(modules)))


class TestScanMatchesFullGraph:
    """The lazy import scan slices exactly as the whole-program graph."""

    @pytest.mark.parametrize("memoized", [True, False])
    @pytest.mark.parametrize("variant", sorted(_SCAN_VARIANTS))
    def test_synthetic_tree(self, tmp_path, variant, memoized):
        files = {**_SCAN_TREE, **_SCAN_VARIANTS[variant]}
        root = tmp_path / "pkg"
        for rel, source in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(textwrap.dedent(source))
        for entry in _SCAN_ENTRIES:
            if not memoized:
                invalidate(root)
            got = slice_fingerprint(entry, root)
            assert got == _full_graph_slice(entry, root), entry
        run = slice_fingerprint("pkg.app.main.run", root)
        if variant in ("clean", "unparseable_outside", "dynamic_outside"):
            assert run.kind == "slice", run.reason
            assert {"pkg.in_match", "pkg.stars", "pkg.util",
                    "pkg.app.sibling"} <= set(run.modules)
            assert "pkg.outside" not in run.modules
        else:
            assert run.kind == "tree"

    @pytest.mark.parametrize("memoized", [True, False])
    def test_shipped_entries(self, memoized):
        import repro
        from repro.analysis import SPECS

        root = Path(repro.__file__).parent
        entries = sorted({*(spec.entry_point for spec in SPECS.values()),
                          "repro.sweep.points.icache_point",
                          "repro.runner.run_tasks", "repro.ghost.fn"})
        for entry in entries:
            if not memoized:
                invalidate()
            got = slice_fingerprint(entry)
            assert got == _full_graph_slice(entry, root), entry


class TestSlicerSalt:
    def test_slicer_change_would_invalidate_slices(self, tmp_path):
        # The slicer hashes itself (callgraph.py + fingerprint.py) into
        # every slice: digests computed by a buggy slicer must die with
        # the bug.  Simulate with a synthetic tree carrying those files.
        root = _sliceable(tmp_path)
        (root / "check").mkdir()
        (root / "check" / "__init__.py").touch()
        (root / "check" / "callgraph.py").write_text("VERSION = 1\n")
        before = slice_fingerprint("pkg.entry.experiment", root)
        (root / "check" / "callgraph.py").write_text("VERSION = 2\n")
        after = slice_fingerprint("pkg.entry.experiment", root)
        assert before.kind == after.kind == "slice"
        # pkg.check is not imported by the entry, yet the digest moved.
        assert "pkg.check.callgraph" not in before.modules
        assert after.digest != before.digest

    def test_salt_names_the_files_that_define_the_slicer(self):
        # Moving the scanner, canonicalize or module_slice to a file the
        # salt does not list would leave slice-keyed entries from the
        # old slicer valid.
        import inspect

        import repro
        from repro.check.callgraph import (
            CallGraph,
            canonicalize,
            import_graph,
        )
        from repro.runner.fingerprint import _SLICER_SALT

        root = Path(repro.__file__).parent
        for obj in (import_graph, canonicalize, CallGraph.module_slice,
                    CallGraph.slice_holes, slice_fingerprint):
            path = Path(inspect.getsourcefile(obj)).relative_to(root)
            assert path.as_posix() in _SLICER_SALT, obj


class TestCheckoutScripts:
    """In a src-layout checkout, the sibling scripts/ tree is hashed too."""

    def _checkout(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text("A = 1\n")
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "check_docs.py").write_text("GATE = 1\n")
        return pkg

    def test_scripts_change_invalidates(self, tmp_path):
        pkg = self._checkout(tmp_path)
        before = _fresh(pkg)
        (tmp_path / "scripts" / "check_docs.py").write_text("GATE = 2\n")
        assert _fresh(pkg) != before

    def test_scripts_cannot_shadow_package_paths(self, tmp_path):
        # A scripts/x.py and a repro/scripts/x.py get distinct labels.
        from repro.runner.fingerprint import _tracked_sources

        pkg = self._checkout(tmp_path)
        (pkg / "scripts").mkdir()
        (pkg / "scripts" / "check_docs.py").write_text("GATE = 1\n")
        labels = [label for label, _ in _tracked_sources(pkg)]
        assert "scripts/check_docs.py" in labels
        assert "@scripts/check_docs.py" in labels
        assert len(labels) == len(set(labels))

    def test_non_checkout_layout_ignores_siblings(self, tmp_path):
        pkg = tmp_path / "site-packages" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text("A = 1\n")
        (tmp_path / "scripts").mkdir()
        (tmp_path / "scripts" / "x.py").write_text("X = 1\n")
        before = _fresh(pkg)
        (tmp_path / "scripts" / "x.py").write_text("X = 2\n")
        assert _fresh(pkg) == before


class TestMemoUnderContention:
    def test_concurrent_misses_agree_and_fill_the_memo(self, tmp_path):
        # Regression for the memo's lock: barrier-released threads all
        # miss the memo at once; every thread must return the same
        # digest and the memo must end up filled (a torn dict write
        # under free-threading would corrupt it).
        import threading

        root = _tree(tmp_path)
        invalidate()
        digests = [None] * 8
        barrier = threading.Barrier(len(digests))

        def work(i):
            barrier.wait()
            digests[i] = code_fingerprint(root)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(digests))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(set(digests)) == 1
        assert digests[0] == code_fingerprint(root)  # memo hit agrees
