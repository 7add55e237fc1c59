import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.fast import (
    _column_buffer_exact,
    column_buffer_fast,
    column_buffer_fast_supported,
    direct_mapped_miss_flags,
    direct_mapped_miss_rate,
    set_assoc_miss_flags,
    set_assoc_miss_rate,
    simulate_column_buffer,
    simulate_two_level,
    two_level_fast,
    two_way_lru_miss_flags,
)
from repro.caches.hierarchy import TwoLevelHierarchy
from repro.caches.set_assoc import FullyAssociativeCache, SetAssociativeCache
from repro.common.params import CacheGeometry, VictimCacheParams
from repro.common.units import KB, MB
from repro.trace.stream import ReferenceTrace


def _reference_flags(addresses, geometry):
    cache = SetAssociativeCache(geometry)
    return [not cache.access(addr) for addr in addresses]


class TestDirectMappedFast:
    def test_empty_trace(self):
        geom = CacheGeometry(8 * KB, 32, 1)
        assert direct_mapped_miss_flags(np.zeros(0, dtype=np.int64), geom).size == 0
        assert direct_mapped_miss_rate(np.zeros(0, dtype=np.int64), geom) == 0.0

    def test_simple_conflict(self):
        geom = CacheGeometry(8 * KB, 32, 1)
        addrs = np.array([0, 8 * KB, 0], dtype=np.int64)
        assert direct_mapped_miss_flags(addrs, geom).tolist() == [True, True, True]

    def test_rejects_wrong_associativity(self):
        with pytest.raises(ValueError):
            direct_mapped_miss_flags(
                np.array([0], dtype=np.int64), CacheGeometry(8 * KB, 32, 2)
            )

    @settings(max_examples=60, deadline=None)
    @given(addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=400))
    def test_matches_reference_simulator(self, addrs):
        geom = CacheGeometry(2 * KB, 32, 1)
        arr = np.asarray(addrs, dtype=np.int64)
        fast = direct_mapped_miss_flags(arr, geom).tolist()
        assert fast == _reference_flags(addrs, geom)


class TestTwoWayFast:
    def test_two_aliases_coexist(self):
        geom = CacheGeometry(16 * KB, 512, 2)
        addrs = np.array([0, 8 * KB, 0, 8 * KB], dtype=np.int64)
        assert two_way_lru_miss_flags(addrs, geom).tolist() == [
            True,
            True,
            False,
            False,
        ]

    def test_rejects_wrong_associativity(self):
        with pytest.raises(ValueError):
            two_way_lru_miss_flags(
                np.array([0], dtype=np.int64), CacheGeometry(8 * KB, 32, 1)
            )

    @settings(max_examples=60, deadline=None)
    @given(addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=400))
    def test_matches_reference_simulator(self, addrs):
        geom = CacheGeometry(4 * KB, 32, 2)
        arr = np.asarray(addrs, dtype=np.int64)
        fast = two_way_lru_miss_flags(arr, geom).tolist()
        assert fast == _reference_flags(addrs, geom)


# Geometries with more than 65,536 sets take the int64-key sort.  Draw
# addresses that alias in sets on both sides of that boundary, plus
# arbitrary ones up to 1 << 28.
_WIDE_SETS = (0, 1, 65_535, 65_536, 100_000, 131_071)


def _wide_addrs(geometry):
    way_bytes = geometry.num_sets * geometry.line_bytes
    aliasing = st.builds(
        lambda tag, index, offset: tag * way_bytes + index * 32 + offset,
        st.integers(0, 5), st.sampled_from(_WIDE_SETS), st.integers(0, 31),
    )
    return st.lists(st.one_of(aliasing, st.integers(0, (1 << 28) - 1)),
                    min_size=1, max_size=200)


class TestMoreThan65536Sets:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_direct_mapped_matches_reference(self, data):
        geom = CacheGeometry(4 * MB, 32, 1)
        assert geom.num_sets > 1 << 16
        addrs = data.draw(_wide_addrs(geom))
        flags = direct_mapped_miss_flags(np.asarray(addrs, dtype=np.int64), geom)
        assert flags.tolist() == _reference_flags(addrs, geom)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_two_way_matches_reference(self, data):
        geom = CacheGeometry(8 * MB, 32, 2)
        assert geom.num_sets > 1 << 16
        addrs = data.draw(_wide_addrs(geom))
        flags = two_way_lru_miss_flags(np.asarray(addrs, dtype=np.int64), geom)
        assert flags.tolist() == _reference_flags(addrs, geom)


class TestOneReference:
    """A one-reference trace through every engine: a single compulsory
    miss, and no eviction, writeback or victim activity."""

    ADDR = 4_160

    @pytest.mark.parametrize("geometry", [
        CacheGeometry(8 * KB, 32, 1),
        CacheGeometry(16 * KB, 32, 2),
        CacheGeometry(4 * KB, 32, 4),
        CacheGeometry(512, 32, 0),
    ], ids=["1-way", "2-way", "4-way", "full"])
    def test_set_assoc_engines(self, geometry):
        addrs = np.array([self.ADDR], dtype=np.int64)
        assert set_assoc_miss_flags(addrs, geometry).tolist() == [True]
        assert set_assoc_miss_rate(addrs, geometry) == 1.0
        if geometry.ways == 1:
            assert direct_mapped_miss_flags(addrs, geometry).tolist() == [True]
            assert direct_mapped_miss_rate(addrs, geometry) == 1.0
        if geometry.ways == 2:
            assert two_way_lru_miss_flags(addrs, geometry).tolist() == [True]

    @pytest.mark.parametrize("write", [False, True])
    @pytest.mark.parametrize("victim", [None, VictimCacheParams()],
                             ids=["plain", "victim"])
    @pytest.mark.parametrize("geometry", [
        CacheGeometry(8 * 512, 512, 1),
        CacheGeometry(16 * 512, 512, 2),
        CacheGeometry(16 * 512, 512, 4),
    ], ids=["1-way", "2-way", "4-way"])
    def test_column_buffer(self, geometry, victim, write):
        addrs = np.array([self.ADDR], dtype=np.int64)
        writes = np.array([write])
        fast = column_buffer_fast(addrs, writes, geometry, victim)
        exact = _column_buffer_exact(addrs, writes, geometry, victim, 32)
        _assert_results_identical(fast, exact)
        assert fast.miss_flags.tolist() == [True]

    def test_two_level(self):
        l1 = CacheGeometry(2 * KB, 32, 2)
        l2 = CacheGeometry(8 * KB, 64, 1)
        trace = ReferenceTrace.reads([self.ADDR])
        assert simulate_two_level(trace, l1, l2) == simulate_two_level(
            trace, l1, l2, engine="exact"
        )
        result = two_level_fast(trace.addresses, l1, l2)
        assert result.l1_miss_flags.tolist() == [True]
        assert result.l2_miss_flags.tolist() == [True]


class TestDispatch:
    @settings(max_examples=20, deadline=None)
    @given(addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200))
    def test_four_way_fallback_matches_reference(self, addrs):
        geom = CacheGeometry(4 * KB, 32, 4)
        rate = set_assoc_miss_rate(np.asarray(addrs, dtype=np.int64), geom)
        flags = _reference_flags(addrs, geom)
        assert rate == pytest.approx(sum(flags) / len(flags))


class TestSetAssocFlags:
    def test_empty_trace(self):
        geom = CacheGeometry(4 * KB, 32, 4)
        assert set_assoc_miss_flags(np.zeros(0, dtype=np.int64), geom).size == 0

    @settings(max_examples=40, deadline=None)
    @given(addrs=st.lists(st.integers(0, 1 << 15), min_size=1, max_size=300))
    def test_four_way_matches_reference(self, addrs):
        geom = CacheGeometry(2 * KB, 32, 4)
        flags = set_assoc_miss_flags(np.asarray(addrs, dtype=np.int64), geom)
        assert flags.tolist() == _reference_flags(addrs, geom)

    @settings(max_examples=40, deadline=None)
    @given(addrs=st.lists(st.integers(0, 1 << 13), min_size=1, max_size=300))
    def test_fully_associative_matches_reference(self, addrs):
        geom = CacheGeometry(512, 32, 0)  # 16-entry fully associative
        arr = np.asarray(addrs, dtype=np.int64)
        flags = set_assoc_miss_flags(arr, geom)
        cache = FullyAssociativeCache(512, 32)
        assert flags.tolist() == [not cache.access(a) for a in addrs]


# Strategies for the column-buffer differential: mixes of sequential
# bursts (runs collapse) and aliasing hot spots (victim feedback).
_cb_refs = st.lists(
    st.tuples(st.integers(0, 1 << 15), st.booleans()), min_size=1, max_size=250
)
_cb_geoms = st.sampled_from(
    [
        CacheGeometry(2 * 512, 512, 1),
        CacheGeometry(8 * 512, 512, 1),
        CacheGeometry(8 * 512, 512, 2),
        CacheGeometry(16 * 512, 512, 4),
        CacheGeometry(4 * 128, 128, 2),
    ]
)
_cb_victims = st.sampled_from(
    [
        None,
        VictimCacheParams(entries=1),
        VictimCacheParams(entries=2),
        VictimCacheParams(entries=16),
        VictimCacheParams(entries=4, line_bytes=64),
    ]
)


def _assert_results_identical(fast, exact):
    assert fast.miss_flags.tolist() == exact.miss_flags.tolist()
    assert fast.victim_hit_flags.tolist() == exact.victim_hit_flags.tolist()
    assert fast.stats == exact.stats
    assert fast.main_hits == exact.main_hits
    assert fast.victim_hits == exact.victim_hits
    assert fast.victim_probes == exact.victim_probes
    assert fast.victim_inserts == exact.victim_inserts
    assert fast.victim_writebacks == exact.victim_writebacks


class TestColumnBufferDifferential:
    """The vectorized engine against the object-oriented oracle, field
    by field: miss flags, victim-hit flags, the full CacheStats, the
    main/victim hit split and all victim counters."""

    @settings(max_examples=60, deadline=None)
    @given(refs=_cb_refs, geometry=_cb_geoms, victim=_cb_victims)
    def test_matches_oracle(self, refs, geometry, victim):
        addrs = np.asarray([a for a, _ in refs], dtype=np.int64)
        writes = np.asarray([w for _, w in refs], dtype=bool)
        fast = column_buffer_fast(addrs, writes, geometry, victim)
        exact = _column_buffer_exact(addrs, writes, geometry, victim, 32)
        _assert_results_identical(fast, exact)

    def test_empty_trace(self):
        geom = CacheGeometry(8 * 512, 512, 1)
        result = column_buffer_fast(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), geom
        )
        assert result.miss_flags.size == 0
        assert result.stats.accesses == 0

    def test_thrash_with_victim_feedback(self):
        # The canonical feedback case: aliasing hot words are absorbed
        # by the victim buffer, so the column is never refilled and the
        # main cache's contents depend on victim state.
        geom = CacheGeometry(8 * 512, 512, 1)
        addrs = np.asarray([0, 4096, 0, 4096] * 25, dtype=np.int64)
        writes = np.zeros(addrs.size, dtype=bool)
        victim = VictimCacheParams()
        fast = column_buffer_fast(addrs, writes, geom, victim)
        exact = _column_buffer_exact(addrs, writes, geom, victim, 32)
        _assert_results_identical(fast, exact)
        # Every repeat of the displaced hot word is served victim-side.
        assert fast.victim_hits == 49

    @settings(max_examples=30, deadline=None)
    @given(refs=_cb_refs)
    def test_run_collapse_handles_write_splits(self, refs):
        # Load/store hit split within collapsed runs (prefix-sum path).
        geom = CacheGeometry(2 * 512, 512, 2)
        addrs = np.asarray([a % 2048 for a, _ in refs], dtype=np.int64)
        writes = np.asarray([w for _, w in refs], dtype=bool)
        fast = column_buffer_fast(addrs, writes, geom, None)
        exact = _column_buffer_exact(addrs, writes, geom, None, 32)
        _assert_results_identical(fast, exact)


    def test_plain_two_way_writes_back_a_promoted_dirty_column(self):
        # Four 512 B columns of set 0 in a 4-set 2-way buffer.  A is
        # written, slides to the LRU slot under B, is promoted back to
        # MRU by a read (keeping its dirt), slides down again under C,
        # and D then evicts it: one writeback, of the promoted column.
        geom = CacheGeometry(8 * 512, 512, 2)
        a, b, c, d = (i * 4 * 512 for i in range(4))
        refs = [(a, True), (b, False), (a, False), (c, False), (d, False)]
        addrs = np.asarray([r[0] for r in refs], dtype=np.int64)
        writes = np.asarray([r[1] for r in refs], dtype=bool)
        fast = column_buffer_fast(addrs, writes, geom, None)
        exact = _column_buffer_exact(addrs, writes, geom, None, 32)
        _assert_results_identical(fast, exact)
        assert fast.miss_flags.tolist() == [True, True, False, True, True]
        assert (fast.stats.evictions, fast.stats.writebacks) == (2, 1)

    def test_plain_two_way_promoting_write_dirties_the_column(self):
        # The promoting hit itself writes: C evicts the clean B, then D
        # evicts A, dirtied by the write that promoted it.
        geom = CacheGeometry(8 * 512, 512, 2)
        a, b, c, d = (i * 4 * 512 for i in range(4))
        refs = [(a, False), (b, False), (a + 64, True), (c, False), (d, False)]
        addrs = np.asarray([r[0] for r in refs], dtype=np.int64)
        writes = np.asarray([r[1] for r in refs], dtype=bool)
        fast = column_buffer_fast(addrs, writes, geom, None)
        exact = _column_buffer_exact(addrs, writes, geom, None, 32)
        _assert_results_identical(fast, exact)
        assert (fast.stats.evictions, fast.stats.writebacks) == (2, 1)


class TestSimulateColumnBuffer:
    def _trace(self):
        return ReferenceTrace.reads([0, 4096, 0, 512, 4096])

    def test_engines_agree(self):
        geom = CacheGeometry(8 * 512, 512, 1)
        victim = VictimCacheParams()
        auto = simulate_column_buffer(self._trace(), geom, victim)
        exact = simulate_column_buffer(self._trace(), geom, victim, engine="exact")
        _assert_results_identical(auto, exact)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            simulate_column_buffer(
                self._trace(), CacheGeometry(8 * 512, 512, 1), engine="turbo"
            )

    def test_fast_engine_rejects_unsupported_config(self):
        with pytest.raises(ValueError):
            simulate_column_buffer(
                self._trace(),
                CacheGeometry(8 * 512, 512, 1),
                sub_block_bytes=48,
                engine="fast",
            )

    def test_supported_predicate(self):
        geom = CacheGeometry(8 * 512, 512, 1)
        assert column_buffer_fast_supported(geom)
        assert column_buffer_fast_supported(geom, VictimCacheParams())
        assert not column_buffer_fast_supported(geom, sub_block_bytes=48)
        assert not column_buffer_fast_supported(geom, sub_block_bytes=1024)


class TestTwoLevelDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        refs=st.lists(
            st.tuples(st.integers(0, 1 << 16), st.booleans()),
            min_size=1,
            max_size=300,
        )
    )
    def test_matches_hierarchy(self, refs):
        l1 = CacheGeometry(2 * KB, 32, 2)
        l2 = CacheGeometry(8 * KB, 64, 4)
        trace = ReferenceTrace.from_pairs(refs)
        fast_stats = simulate_two_level(trace, l1, l2)
        exact_stats = simulate_two_level(trace, l1, l2, engine="exact")
        assert fast_stats == exact_stats

    def test_l2_stream_is_l1_miss_stream(self):
        l1 = CacheGeometry(1 * KB, 32, 1)
        l2 = CacheGeometry(4 * KB, 32, 2)
        addrs = np.asarray([0, 32, 0, 1024, 0, 1024], dtype=np.int64)
        result = two_level_fast(addrs, l1, l2)
        assert result.l2_miss_flags.size == int(result.l1_miss_flags.sum())

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            simulate_two_level(
                ReferenceTrace.reads([0]),
                CacheGeometry(1 * KB, 32, 1),
                CacheGeometry(4 * KB, 32, 2),
                engine="turbo",
            )
