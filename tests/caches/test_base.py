import numpy as np
import pytest

from repro.caches.base import Cache, CacheStats, iter_trace
from repro.caches.set_assoc import SetAssociativeCache
from repro.common.params import CacheGeometry
from repro.common.stats import RatioStat
from repro.trace.stream import ReferenceTrace


class TestCacheStats:
    def test_partition_of_accesses(self):
        stats = CacheStats()
        stats.record(hit=True, write=False)
        stats.record(hit=False, write=True)
        stats.record(hit=True, write=True)
        assert stats.accesses == 3
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.miss_rate == pytest.approx(1 / 3)

    def test_load_store_stacking_matches_figure8_convention(self):
        # Figure 8 stacks load and store miss fractions of ALL accesses.
        stats = CacheStats()
        stats.record(hit=False, write=False)
        stats.record(hit=False, write=True)
        stats.record(hit=True, write=False)
        stats.record(hit=True, write=False)
        assert stats.load_miss_rate == pytest.approx(0.25)
        assert stats.store_miss_rate == pytest.approx(0.25)
        assert stats.load_miss_rate + stats.store_miss_rate == pytest.approx(
            stats.miss_rate
        )

    def test_merged(self):
        a = CacheStats(loads=RatioStat(2, 4), stores=RatioStat(1, 2),
                       evictions=3, writebacks=1)
        b = CacheStats(loads=RatioStat(1, 1), stores=RatioStat(0, 1),
                       evictions=2, writebacks=2)
        merged = a.merged(b)
        assert merged.loads.total == 5
        assert merged.stores.hits == 1
        assert merged.evictions == 5
        assert merged.writebacks == 3

    def test_empty_rates_are_zero(self):
        stats = CacheStats()
        assert stats.miss_rate == 0.0
        assert stats.load_miss_rate == 0.0


class TestIterTrace:
    def test_accepts_reference_trace(self):
        trace = ReferenceTrace(
            np.array([0, 4], dtype=np.int64), np.array([False, True])
        )
        assert list(iter_trace(trace)) == [(0, False), (4, True)]

    def test_accepts_plain_pairs(self):
        pairs = [(8, True), (16, False)]
        assert list(iter_trace(pairs)) == pairs

    def test_run_consumes_either_form(self):
        cache_a = SetAssociativeCache(CacheGeometry(1024, 32, 1))
        cache_b = SetAssociativeCache(CacheGeometry(1024, 32, 1))
        trace = ReferenceTrace.reads([0, 32, 0])
        cache_a.run(trace)
        cache_b.run(list(trace))
        assert cache_a.stats.misses == cache_b.stats.misses == 2


class TestCacheBaseClass:
    def test_lookup_hook_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Cache().access(0)
