"""Result cache: hit/miss semantics, key sensitivity, quarantine."""

import textwrap

from repro.common import tally
from repro.runner import ResultCache, code_fingerprint
from repro.runner.cache import entry_key


def _cache(tmp_path, fingerprint="f" * 64):
    return ResultCache(tmp_path / "cache", fingerprint=fingerprint)


def _key(cache, call_id, kwargs, entry=None):
    """The key ``run_tasks`` gives ``call_id`` on ``kwargs`` in ``cache``."""
    return entry_key(call_id, kwargs, cache.fingerprint_for(entry)[0])


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = _cache(tmp_path)
        key = _key(cache, "experiment:demo", {"n": 3})
        assert cache.load(key) is None
        cache.store(key, {"value": 42}, {"tallies": {"gspn_firings": 7}})
        entry = cache.load(key)
        assert entry is not None
        assert entry.result == {"value": 42}
        assert entry.meta["tallies"] == {"gspn_firings": 7}

    def test_key_depends_on_kwargs(self, tmp_path):
        cache = _cache(tmp_path)
        assert _key(cache, "experiment:demo", {"n": 3}) != _key(
            cache, "experiment:demo", {"n": 4})

    def test_key_depends_on_call_id(self, tmp_path):
        cache = _cache(tmp_path)
        assert _key(cache, "experiment:a", {}) != _key(
            cache, "experiment:b", {})

    def test_kwarg_order_is_canonical(self, tmp_path):
        cache = _cache(tmp_path)
        assert _key(cache, "x", {"a": 1, "b": 2}) == _key(
            cache, "x", {"b": 2, "a": 1})

    def test_code_fingerprint_invalidates(self, tmp_path):
        old = ResultCache(tmp_path / "cache", fingerprint="a" * 64)
        new = ResultCache(tmp_path / "cache", fingerprint="b" * 64)
        key = _key(old, "experiment:demo", {"n": 3})
        old.store(key, "stale", {})
        # The same logical computation under new code is a different key,
        # so the stale entry can never be returned.
        assert _key(new, "experiment:demo", {"n": 3}) != key
        assert new.load(_key(new, "experiment:demo", {"n": 3})) is None

    def test_damaged_entry_is_a_miss(self, tmp_path):
        cache = _cache(tmp_path)
        key = _key(cache, "experiment:demo", {})
        cache.store(key, [1, 2, 3], {})
        pkl, _ = cache._paths(key)
        pkl.write_bytes(b"not a pickle")
        assert cache.load(key) is None

    def test_damaged_entry_is_quarantined_not_rereadable(self, tmp_path):
        # A corrupt .pkl must be renamed aside so it is read (and fails)
        # exactly once, and the event must surface in the tallies.
        cache = _cache(tmp_path)
        key = _key(cache, "experiment:demo", {})
        cache.store(key, [1, 2, 3], {"tallies": {}})
        pkl, meta = cache._paths(key)
        pkl.write_bytes(b"not a pickle")
        before = tally.snapshot()
        assert cache.load(key) is None
        assert tally.since(before) == {"cache_corrupt_entries": 1}
        assert not pkl.exists()
        assert pkl.with_suffix(".pkl.corrupt").exists()
        assert meta.with_suffix(".json.corrupt").exists()
        # The quarantined entry stays a plain miss afterwards, with no
        # second tally: there is nothing left on disk to re-read.
        before = tally.snapshot()
        assert cache.load(key) is None
        assert tally.since(before) == {}
        # A recompute can store fresh results under the same key.
        cache.store(key, [4, 5], {})
        entry = cache.load(key)
        assert entry is not None and entry.result == [4, 5]

    def test_damaged_meta_quarantines_both_files(self, tmp_path):
        cache = _cache(tmp_path)
        key = _key(cache, "experiment:demo", {})
        cache.store(key, "value", {})
        pkl, meta = cache._paths(key)
        meta.write_text("{not json")
        assert cache.load(key) is None
        assert not pkl.exists() and not meta.exists()
        assert pkl.with_suffix(".pkl.corrupt").exists()

    def test_torn_write_at_final_path_still_quarantines(self, tmp_path):
        # The atomic-rename protocol means store() can never leave a
        # partial pickle at the final path — but a crashed writer from
        # *before* the protocol (or a filesystem fault) still can, and
        # that entry must quarantine exactly like any other damage.
        cache = _cache(tmp_path)
        key = _key(cache, "experiment:demo", {})
        cache.store(key, list(range(100)), {})
        pkl, _ = cache._paths(key)
        pkl.write_bytes(pkl.read_bytes()[:10])  # torn mid-payload
        before = tally.snapshot()
        assert cache.load(key) is None
        assert tally.since(before) == {"cache_corrupt_entries": 1}
        assert pkl.with_suffix(".pkl.corrupt").exists()


class TestConcurrentStore:
    """Threads and processes may store concurrently; writes must be
    atomic (write-to-temp + ``os.replace``) so a reader never sees — and
    the quarantine path never fires on — a torn entry."""

    def test_tmp_suffixes_never_collide(self, tmp_path):
        import threading

        cache = _cache(tmp_path)
        suffixes = []
        lock = threading.Lock()

        def grab():
            mine = [cache._tmp_suffix() for _ in range(50)]
            with lock:
                suffixes.extend(mine)

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(suffixes)) == len(suffixes)
        # pid and thread id are both in the name, so two *processes*
        # (or a fork) cannot collide either.
        import os

        assert str(os.getpid()) in suffixes[0]

    def test_concurrent_same_key_stores_never_quarantine(self, tmp_path):
        # Before atomic renames, two threads sharing the temp path
        # interleaved their pickles into a torn file; this hammers the
        # exact same key from many threads and demands every subsequent
        # load is a clean hit with one of the written payloads.
        import threading

        cache = _cache(tmp_path)
        key = _key(cache, "experiment:demo", {"n": 1})
        payloads = [list(range(i, i + 1000)) for i in range(8)]
        barrier = threading.Barrier(len(payloads))

        def writer(payload):
            barrier.wait()
            for _ in range(25):
                cache.store(key, payload, {"tallies": {}})

        threads = [threading.Thread(target=writer, args=(p,))
                   for p in payloads]
        before = tally.snapshot()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        entry = cache.load(key)
        assert entry is not None and entry.result in payloads
        assert tally.since(before) == {}  # no quarantine ever fired
        pkl, _ = cache._paths(key)
        assert not pkl.with_suffix(".pkl.corrupt").exists()
        # No temp litter left behind either.
        assert [p.name for p in pkl.parent.iterdir()
                if ".tmp-" in p.name] == []


def _sliceable(tmp_path):
    """A tiny package: entry.py -> model.py, exporter.py outside."""
    root = tmp_path / "spkg"
    root.mkdir()
    (root / "__init__.py").touch()
    (root / "entry.py").write_text(textwrap.dedent("""
        from spkg.model import simulate

        def experiment():
            return simulate()
    """))
    (root / "model.py").write_text("def simulate():\n    return 42\n")
    (root / "exporter.py").write_text("FORMAT = 'json'\n")
    return root


class TestSliceKeying:
    def test_no_entry_point_uses_tree_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path / "cache",
                            package_root=_sliceable(tmp_path))
        assert cache.fingerprint_for(None) == (cache.fingerprint, "tree")

    def test_entry_point_gets_slice_kind(self, tmp_path):
        root = _sliceable(tmp_path)
        cache = ResultCache(tmp_path / "cache", package_root=root)
        digest, kind = cache.fingerprint_for("spkg.entry.experiment")
        assert kind == "slice"
        assert digest != cache.fingerprint

    def test_edit_outside_slice_keeps_key(self, tmp_path):
        root = _sliceable(tmp_path)
        cache = ResultCache(tmp_path / "cache", package_root=root)
        key = _key(cache, "experiment:demo", {"n": 3},
                   entry="spkg.entry.experiment")
        (root / "exporter.py").write_text("FORMAT = 'csv'\n")
        fresh = ResultCache(tmp_path / "cache", package_root=root)
        assert fresh.fingerprint != cache.fingerprint  # tree hash moved
        assert _key(fresh, "experiment:demo", {"n": 3},
                    entry="spkg.entry.experiment") == key

    def test_edit_inside_slice_changes_key(self, tmp_path):
        root = _sliceable(tmp_path)
        cache = ResultCache(tmp_path / "cache", package_root=root)
        key = _key(cache, "experiment:demo", {"n": 3},
                   entry="spkg.entry.experiment")
        (root / "model.py").write_text("def simulate():\n    return 43\n")
        fresh = ResultCache(tmp_path / "cache", package_root=root)
        assert _key(fresh, "experiment:demo", {"n": 3},
                    entry="spkg.entry.experiment") != key

    def test_degraded_slice_lands_on_pinned_fingerprint(self, tmp_path):
        # A dynamic import degrades the slice; the key must fall back to
        # the cache's own (here explicitly pinned) tree fingerprint, not
        # some recomputed digest the pinning caller never saw.
        root = _sliceable(tmp_path)
        (root / "model.py").write_text(
            "import importlib\n"
            "def simulate():\n"
            "    return importlib.import_module('json')\n"
        )
        cache = ResultCache(tmp_path / "cache", fingerprint="f" * 64,
                            package_root=root)
        assert cache.fingerprint_for("spkg.entry.experiment") == \
            ("f" * 64, "tree")

    def test_slice_lookup_is_memoized(self, tmp_path):
        root = _sliceable(tmp_path)
        cache = ResultCache(tmp_path / "cache", package_root=root)
        first = cache.fingerprint_for("spkg.entry.experiment")
        assert cache._slices["spkg.entry.experiment"] == first
        assert cache.fingerprint_for("spkg.entry.experiment") is \
            cache._slices["spkg.entry.experiment"]

    def test_real_registry_entry_slices(self, tmp_path):
        # The shipped tree: registry entry points key by slice, and an
        # unsliceable test-module entry degrades to the tree digest.
        cache = ResultCache(tmp_path / "cache")
        digest, kind = cache.fingerprint_for(
            "repro.analysis.experiments.table1")
        assert kind == "slice"
        assert digest != code_fingerprint()
        assert cache.fingerprint_for("tests.runner.test_cache.TestSliceKeying") == \
            (cache.fingerprint, "tree")
