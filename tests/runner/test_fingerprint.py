"""Code fingerprinting: stability, invalidation, dependency slices."""

import textwrap
from pathlib import Path

from repro.runner import (
    code_fingerprint,
    fingerprint,
    invalidate,
    slice_fingerprint,
)
from repro.runner.fingerprint import shared_callgraph


def _tree(tmp_path: Path) -> Path:
    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "a.py").write_text("A = 1\n")
    (root / "sub" / "b.py").write_text("B = 2\n")
    return root


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
        first = code_fingerprint(root, use_cache=False)
        second = code_fingerprint(root, use_cache=False)
        assert first == second
        assert len(first) == 64  # sha256 hex

    def test_content_change_invalidates(self, tmp_path):
        root = _tree(tmp_path)
        before = code_fingerprint(root, use_cache=False)
        (root / "sub" / "b.py").write_text("B = 3\n")
        assert code_fingerprint(root, use_cache=False) != before

    def test_new_file_invalidates(self, tmp_path):
        root = _tree(tmp_path)
        before = code_fingerprint(root, use_cache=False)
        (root / "c.py").write_text("")
        assert code_fingerprint(root, use_cache=False) != before

    def test_rename_invalidates(self, tmp_path):
        root = _tree(tmp_path)
        before = code_fingerprint(root, use_cache=False)
        (root / "a.py").rename(root / "z.py")
        assert code_fingerprint(root, use_cache=False) != before

    def test_pycache_ignored(self, tmp_path):
        root = _tree(tmp_path)
        before = code_fingerprint(root, use_cache=False)
        cachedir = root / "__pycache__"
        cachedir.mkdir()
        (cachedir / "a.cpython-311.py").write_text("junk")
        assert code_fingerprint(root, use_cache=False) == before

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
    """One call graph per package root and tree state."""

    def test_slices_of_many_entries_share_one_build(self, tmp_path,
                                                    callgraph_builds):
        root = _sliceable(tmp_path)
        first = slice_fingerprint("pkg.entry.experiment", root)
        second = slice_fingerprint("pkg.model.simulate", root)
        assert first.kind == second.kind == "slice"
        assert len(callgraph_builds) == 1
        assert shared_callgraph(root) is fingerprint._GRAPHS[root.resolve()][1]
        assert len(callgraph_builds) == 1

    def test_midprocess_edit_replaces_the_graph(self, tmp_path,
                                                callgraph_builds):
        root = _sliceable(tmp_path)
        graphs_before = len(fingerprint._GRAPHS)
        graph = shared_callgraph(root)
        sliced = slice_fingerprint("pkg.entry.experiment", root)
        for n in range(3):
            (root / "model.py").write_text(
                "def simulate():\n    return 42\n"
                f"def extra_{n}():\n    return {n}\n")
            edited = shared_callgraph(root)
            assert edited is not graph
            assert f"pkg.model.extra_{n}" in edited.functions
            resliced = slice_fingerprint("pkg.entry.experiment", root)
            assert resliced.kind == "slice"
            assert resliced.digest != sliced.digest
            graph, sliced = edited, resliced
        # A new import must widen the slice: a stale graph would not.
        (root / "entry.py").write_text(
            "import pkg.exporter\n"
            "from pkg.model import simulate\n"
            "def experiment():\n    return simulate()\n")
        widened = slice_fingerprint("pkg.entry.experiment", root)
        assert "pkg.exporter" in widened.modules
        assert len(callgraph_builds) == 5
        # One slot per root: the edits replaced the graph, never added.
        assert len(fingerprint._GRAPHS) == graphs_before + 1

    def test_use_cache_false_bypasses_the_memo(self, tmp_path,
                                               callgraph_builds):
        root = _sliceable(tmp_path)
        memoized = shared_callgraph(root)
        for _ in range(2):
            slice_fingerprint("pkg.entry.experiment", root, use_cache=False)
        assert len(callgraph_builds) == 3
        assert fingerprint._GRAPHS[root.resolve()][1] is memoized

    def test_invalidate_clears_the_graph(self, tmp_path, callgraph_builds):
        root = _sliceable(tmp_path)
        shared_callgraph(root)
        invalidate(root)
        assert root.resolve() not in fingerprint._GRAPHS
        shared_callgraph(root)
        invalidate()
        assert fingerprint._GRAPHS == {}
        shared_callgraph(root)
        assert len(callgraph_builds) == 3


class TestShippedSliceEquivalence:
    def test_memoized_slices_equal_fresh_ones(self, callgraph_builds):
        # Every registry entry point and the sweep point slice from one
        # graph to exactly what an uncached computation gives.
        from repro.analysis.registry import entry_points

        entries = sorted({*entry_points().values(),
                          "repro.sweep.points.icache_point"})
        invalidate()
        memoized = {entry: slice_fingerprint(entry) for entry in entries}
        assert len(callgraph_builds) == 1
        for entry in entries:
            fresh = slice_fingerprint(entry, use_cache=False)
            got = memoized[entry]
            assert (got.digest, got.kind, got.reason, got.modules) == (
                fresh.digest, fresh.kind, fresh.reason, fresh.modules), entry
        assert len(callgraph_builds) == 1 + len(entries)


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
        before = code_fingerprint(pkg, use_cache=False)
        (tmp_path / "scripts" / "check_docs.py").write_text("GATE = 2\n")
        assert code_fingerprint(pkg, use_cache=False) != before

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
        before = code_fingerprint(pkg, use_cache=False)
        (tmp_path / "scripts" / "x.py").write_text("X = 2\n")
        assert code_fingerprint(pkg, use_cache=False) == before


class TestMemoUnderContention:
    def test_concurrent_misses_agree_and_fill_the_memo(self, tmp_path):
        # Regression for the _MEMO_LOCK guard: barrier-released threads
        # all miss the memo at once; duplicate computes are allowed but
        # every thread must return the same digest and the memo must
        # end up filled (a torn dict write under free-threading would
        # corrupt it).
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
