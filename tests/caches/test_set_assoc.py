import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.set_assoc import SetAssociativeCache
from repro.common.params import CacheGeometry
from repro.common.units import KB


class TestDirectMapped:
    def test_cold_miss_then_hit(self):
        cache = SetAssociativeCache(CacheGeometry(8 * KB, 32, 1))
        assert not cache.access(0x100)
        assert cache.access(0x100)
        assert cache.access(0x11C)  # same 32 B line

    def test_conflict_eviction(self):
        cache = SetAssociativeCache(CacheGeometry(8 * KB, 32, 1))
        cache.access(0)
        cache.access(8 * KB)  # aliases to set 0, evicts
        assert not cache.access(0)

    def test_distinct_sets_do_not_conflict(self):
        cache = SetAssociativeCache(CacheGeometry(8 * KB, 32, 1))
        cache.access(0)
        cache.access(32)
        assert cache.access(0)
        assert cache.access(32)

    def test_stats_split_loads_and_stores(self):
        cache = SetAssociativeCache(CacheGeometry(8 * KB, 32, 1))
        cache.access(0, write=False)  # load miss
        cache.access(0, write=True)  # store hit
        cache.access(64, write=True)  # store miss
        assert cache.stats.loads.misses == 1
        assert cache.stats.stores.hits == 1
        assert cache.stats.stores.misses == 1
        assert cache.stats.miss_rate == pytest.approx(2 / 3)

    def test_eviction_callback_receives_line_address(self):
        evicted = []
        cache = SetAssociativeCache(CacheGeometry(8 * KB, 32, 1),
                                    on_evict=evicted.append)
        cache.access(0x123)
        cache.access(0x123 + 8 * KB)
        assert evicted == [0x120]


class TestTwoWay:
    def test_two_aliases_coexist(self):
        cache = SetAssociativeCache(CacheGeometry(16 * KB, 512, 2))
        cache.access(0)
        cache.access(8 * KB)  # same set, second way
        assert cache.access(0)
        assert cache.access(8 * KB)

    def test_lru_evicts_least_recent(self):
        cache = SetAssociativeCache(CacheGeometry(16 * KB, 512, 2))
        cache.access(0)  # way A
        cache.access(8 * KB)  # way B
        cache.access(0)  # A is now MRU
        cache.access(16 * KB)  # evicts B
        assert cache.access(0)
        assert not cache.access(8 * KB)

    def test_reset_clears_contents_and_stats(self):
        cache = SetAssociativeCache(CacheGeometry(16 * KB, 512, 2))
        cache.access(0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert not cache.access(0)


class TestFullyAssociative:
    def test_capacity_lru(self):
        cache = SetAssociativeCache(CacheGeometry(4 * 32, 32, 0))  # 4 lines
        for addr in (0, 32, 64, 96):
            cache.access(addr)
        cache.access(0)  # refresh line 0
        cache.access(128)  # evicts 32 (LRU)
        assert cache.access(0)
        assert not cache.access(32)


def _oracle_lru(addresses, num_sets, ways, line_bytes):
    """Reference LRU model using dicts of recency-stamped tags."""
    sets = [dict() for _ in range(num_sets)]
    clock = 0
    hits = []
    for addr in addresses:
        clock += 1
        index = (addr // line_bytes) % num_sets
        tag = addr // (line_bytes * num_sets)
        tags = sets[index]
        if tag in tags:
            hits.append(True)
        else:
            hits.append(False)
            if len(tags) >= ways:
                victim = min(tags, key=tags.get)
                del tags[victim]
        tags[tag] = clock
    return hits


@settings(max_examples=60, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=300),
    ways=st.sampled_from([1, 2, 4]),
)
def test_lru_matches_oracle(addresses, ways):
    """SetAssociativeCache agrees with an independent timestamp-LRU oracle."""
    line = 32
    num_sets = 8
    cache = SetAssociativeCache(CacheGeometry(num_sets * ways * line, line, ways))
    got = [cache.access(addr) for addr in addresses]
    assert got == _oracle_lru(addresses, num_sets, ways, line)


@settings(max_examples=40, deadline=None)
@given(addresses=st.lists(st.integers(0, 1 << 13), min_size=1, max_size=200))
def test_more_ways_same_sets_is_inclusive(addresses):
    """With the same set mapping, each set is an LRU stack, so a k-way
    cache's hits are a subset of a 2k-way cache's hits (per-set stack
    inclusion)."""
    line = 32
    num_sets = 8
    narrow = SetAssociativeCache(CacheGeometry(num_sets * 2 * line, line, 2))
    wide = SetAssociativeCache(CacheGeometry(num_sets * 4 * line, line, 4))
    for addr in addresses:
        narrow_hit = narrow.access(addr)
        wide_hit = wide.access(addr)
        assert not (narrow_hit and not wide_hit)


@settings(max_examples=40, deadline=None)
@given(addresses=st.lists(st.integers(0, 1 << 15), min_size=1, max_size=200))
def test_fully_associative_inclusion_with_size(addresses):
    """LRU is a stack algorithm: a bigger fully-associative cache hits on a
    superset of the references a smaller one hits on."""
    line = 32
    small = SetAssociativeCache(CacheGeometry(4 * line, line, 0))
    big = SetAssociativeCache(CacheGeometry(16 * line, line, 0))
    for addr in addresses:
        small_hit = small.access(addr)
        big_hit = big.access(addr)
        assert not (small_hit and not big_hit)
