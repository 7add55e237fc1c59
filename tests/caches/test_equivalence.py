"""Cross-model equivalence properties between cache implementations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.column_buffer import ColumnBufferCache
from repro.caches.fast import column_buffer_fast, set_assoc_miss_flags
from repro.caches.set_assoc import SetAssociativeCache
from repro.common.params import CacheGeometry


@settings(max_examples=40, deadline=None)
@given(
    refs=st.lists(
        st.tuples(st.integers(0, 1 << 16), st.booleans()),
        min_size=1,
        max_size=300,
    ),
    ways=st.sampled_from([1, 2]),
)
def test_column_cache_without_victim_equals_set_assoc(refs, ways):
    """A ColumnBufferCache with no victim cache is behaviourally identical
    to a plain set-associative cache of the same geometry — the victim
    coupling and sub-block tracking are the only differences."""
    geometry = CacheGeometry(8 * ways * 512, 512, ways)
    column = ColumnBufferCache(geometry)
    plain = SetAssociativeCache(geometry)
    for addr, write in refs:
        assert column.access(addr, write) == plain.access(addr, write)
    assert column.stats.misses == plain.stats.misses
    assert column.stats.evictions == plain.stats.evictions
    assert column.stats.writebacks == plain.stats.writebacks
    assert sorted(column.resident_lines()) == sorted(plain.resident_lines())


@settings(max_examples=40, deadline=None)
@given(
    refs=st.lists(
        st.tuples(st.integers(0, 1 << 15), st.booleans()),
        min_size=1,
        max_size=300,
    )
)
def test_victim_cache_never_increases_misses(refs):
    """Adding the victim cache can only convert misses into hits."""
    geometry = CacheGeometry(16 * 512, 512, 2)
    from repro.caches.victim import VictimCache

    plain = ColumnBufferCache(geometry)
    with_victim = ColumnBufferCache(geometry, victim=VictimCache())
    for addr, write in refs:
        plain.access(addr, write)
        with_victim.access(addr, write)
    assert with_victim.stats.misses <= plain.stats.misses


@settings(max_examples=40, deadline=None)
@given(
    refs=st.lists(
        st.tuples(st.integers(0, 1 << 15), st.booleans()),
        min_size=1,
        max_size=200,
    )
)
def test_writebacks_bounded_by_write_misses_plus_evictions(refs):
    """A line only becomes dirty through a write, so writebacks can never
    exceed the number of writes, nor the number of evictions."""
    cache = SetAssociativeCache(CacheGeometry(4 * 512, 512, 2))
    writes = 0
    for addr, write in refs:
        cache.access(addr, write)
        writes += int(write)
    assert cache.stats.writebacks <= writes
    assert cache.stats.writebacks <= cache.stats.evictions


@settings(max_examples=40, deadline=None)
@given(
    refs=st.lists(
        st.tuples(st.integers(0, 1 << 16), st.booleans()),
        min_size=1,
        max_size=300,
    ),
    ways=st.sampled_from([1, 2]),
)
def test_fast_column_buffer_without_victim_equals_set_assoc_flags(refs, ways):
    """Without the victim coupling the column-buffer fast path reduces to
    plain set-associative LRU, so three implementations — the
    run-collapse engine, the per-reference flag engine and the
    object-oriented simulator — must produce the same miss flags."""
    geometry = CacheGeometry(8 * ways * 512, 512, ways)
    addrs = np.asarray([a for a, _ in refs], dtype=np.int64)
    writes = np.asarray([w for _, w in refs], dtype=bool)
    fast = column_buffer_fast(addrs, writes, geometry)
    flags = set_assoc_miss_flags(addrs, geometry)
    cache = SetAssociativeCache(geometry)
    oracle = [not cache.access(a, w) for a, w in refs]
    assert fast.miss_flags.tolist() == oracle
    assert flags.tolist() == oracle
    assert fast.stats.evictions == cache.stats.evictions
    assert fast.stats.writebacks == cache.stats.writebacks
