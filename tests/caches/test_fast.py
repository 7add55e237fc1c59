import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.caches.fast as fast_engine
from repro.analysis.experiments import figure7, figure8
from repro.caches.fast import (
    column_buffer_fast,
    direct_mapped_miss_rate,
    set_assoc_miss_flags,
    set_assoc_miss_rate,
    set_assoc_miss_rates,
    simulate_column_buffer,
)
from repro.caches.set_assoc import SetAssociativeCache
from repro.common.params import (
    CacheGeometry,
    ConventionalSystemParams,
    VictimCacheParams,
)
from repro.common import tally
from repro.common.units import KB, MB
from repro.trace.stream import ReferenceTrace
from repro.uniproc.measurement import _conventional_stats, measure_conventional
from repro.workloads.spec import get_proxy
from tests.caches.reference_column_buffer import column_buffer_exact
from tests.uniproc.reference_hierarchy import conventional_hierarchies
from tests.uniproc.reference_measurement import reference_conventional


def _reference_flags(addresses, geometry):
    cache = SetAssociativeCache(geometry)
    return [not cache.access(addr) for addr in addresses]


class TestDirectMappedFast:
    def test_empty_trace(self):
        geom = CacheGeometry(8 * KB, 32, 1)
        assert set_assoc_miss_flags(np.zeros(0, dtype=np.int64), geom).size == 0
        assert direct_mapped_miss_rate(np.zeros(0, dtype=np.int64), geom) == 0.0

    def test_simple_conflict(self):
        geom = CacheGeometry(8 * KB, 32, 1)
        addrs = np.array([0, 8 * KB, 0], dtype=np.int64)
        assert set_assoc_miss_flags(addrs, geom).tolist() == [True, True, True]

    def test_rejects_wrong_associativity(self):
        with pytest.raises(ValueError, match="2-way"):
            direct_mapped_miss_rate(
                np.array([0], dtype=np.int64), CacheGeometry(8 * KB, 32, 2)
            )

    @settings(max_examples=60, deadline=None)
    @given(addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=400))
    def test_matches_reference_simulator(self, addrs):
        geom = CacheGeometry(2 * KB, 32, 1)
        arr = np.asarray(addrs, dtype=np.int64)
        fast = set_assoc_miss_flags(arr, geom).tolist()
        assert fast == _reference_flags(addrs, geom)


class TestTwoWayFast:
    def test_two_aliases_coexist(self):
        geom = CacheGeometry(16 * KB, 512, 2)
        addrs = np.array([0, 8 * KB, 0, 8 * KB], dtype=np.int64)
        assert set_assoc_miss_flags(addrs, geom).tolist() == [
            True,
            True,
            False,
            False,
        ]

    def test_rejects_wrong_associativity(self):
        with pytest.raises(ValueError, match="4-way"):
            set_assoc_miss_rate(
                np.array([0], dtype=np.int64), CacheGeometry(8 * KB, 32, 4)
            )

    @settings(max_examples=60, deadline=None)
    @given(addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=400))
    def test_matches_reference_simulator(self, addrs):
        geom = CacheGeometry(4 * KB, 32, 2)
        arr = np.asarray(addrs, dtype=np.int64)
        fast = set_assoc_miss_flags(arr, geom).tolist()
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
        flags = set_assoc_miss_flags(np.asarray(addrs, dtype=np.int64), geom)
        assert flags.tolist() == _reference_flags(addrs, geom)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_two_way_matches_reference(self, data):
        geom = CacheGeometry(8 * MB, 32, 2)
        assert geom.num_sets > 1 << 16
        addrs = data.draw(_wide_addrs(geom))
        flags = set_assoc_miss_flags(np.asarray(addrs, dtype=np.int64), geom)
        assert flags.tolist() == _reference_flags(addrs, geom)


class TestSetAssocFlags:
    def test_empty_trace(self):
        geom = CacheGeometry(16 * KB, 32, 2)
        assert set_assoc_miss_flags(np.zeros(0, dtype=np.int64), geom).size == 0
        assert set_assoc_miss_rate(np.zeros(0, dtype=np.int64), geom) == 0.0


def _served(geometry, victim):
    """The configurations :func:`column_buffer_fast` serves."""
    return geometry.ways <= 2 if victim is None else geometry.ways == 2


class TestOneReference:
    """A one-reference trace through every engine: a single compulsory
    miss, and no eviction, writeback or victim activity — or, for a
    configuration the engine does not serve, a ``ValueError``."""

    ADDR = 4_160

    @pytest.mark.parametrize("geometry", [
        CacheGeometry(8 * KB, 32, 1),
        CacheGeometry(16 * KB, 32, 2),
        CacheGeometry(4 * KB, 32, 4),
        CacheGeometry(512, 32, 0),
    ], ids=["1-way", "2-way", "4-way", "full"])
    def test_set_assoc_engines(self, geometry):
        addrs = np.array([self.ADDR], dtype=np.int64)
        if geometry.ways > 2:
            with pytest.raises(ValueError, match="SetAssociativeCache"):
                set_assoc_miss_flags(addrs, geometry)
            with pytest.raises(ValueError, match="SetAssociativeCache"):
                set_assoc_miss_rate(addrs, geometry)
            return
        assert set_assoc_miss_flags(addrs, geometry).tolist() == [True]
        assert set_assoc_miss_rate(addrs, geometry) == 1.0
        if geometry.ways == 1:
            assert direct_mapped_miss_rate(addrs, geometry) == 1.0

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
        if not _served(geometry, victim):
            with pytest.raises(ValueError, match="ColumnBufferCache"):
                column_buffer_fast(addrs, writes, geometry, victim)
            return
        fast = column_buffer_fast(addrs, writes, geometry, victim)
        exact = column_buffer_exact(addrs, writes, geometry, victim)
        _assert_results_identical(fast, exact)
        assert fast.miss_flags.tolist() == [True]

    def test_two_level(self):
        # A one-instruction trace gives one instruction and one data
        # reference through the split L1s and their shared L2.
        proxy = get_proxy("126.gcc")
        rates = measure_conventional(proxy, 1)
        assert rates == reference_conventional(proxy, 1)
        assert (rates.icache_miss_rate, rates.dcache_miss_rate) == (1.0, 1.0)


class TestUnservedConfigurations:
    """Configurations outside the fast engines raise ``ValueError``,
    naming the geometry and the object-oriented model that serves it."""

    ADDRS = np.array([0, 4_096, 0], dtype=np.int64)

    @pytest.mark.parametrize("geometry, named", [
        (CacheGeometry(4 * KB, 32, 4), "4-way 4096 B cache with 32 B lines"),
        (CacheGeometry(512, 32, 0),
         "fully associative 512 B cache with 32 B lines"),
    ], ids=["4-way", "full"])
    def test_set_assoc_rejects(self, geometry, named):
        with pytest.raises(ValueError, match=named) as info:
            set_assoc_miss_flags(self.ADDRS, geometry)
        assert "SetAssociativeCache" in str(info.value)

    @pytest.mark.parametrize("geometry, victim, named", [
        (CacheGeometry(16 * 512, 512, 4), None,
         "4-way 8192 B cache with 512 B lines"),
        (CacheGeometry(4 * 512, 512, 0), None,
         "fully associative 2048 B cache with 512 B lines"),
        (CacheGeometry(8 * 512, 512, 1), VictimCacheParams(),
         "1-way 4096 B cache with 512 B lines and a 16-entry victim buffer"),
    ], ids=["4-way", "full", "1-way-victim"])
    def test_column_buffer_rejects(self, geometry, victim, named):
        writes = np.zeros(self.ADDRS.size, dtype=bool)
        with pytest.raises(ValueError, match=named) as info:
            column_buffer_fast(self.ADDRS, writes, geometry, victim)
        assert "ColumnBufferCache" in str(info.value)


# Strategies for the column-buffer differential: mixes of sequential
# bursts (runs collapse) and aliasing hot spots (victim feedback), over
# the configurations the fast engine serves.
_cb_refs = st.lists(
    st.tuples(st.integers(0, 1 << 15), st.booleans()), min_size=1, max_size=250
)
_cb_configs = st.one_of(
    st.tuples(
        st.sampled_from([
            CacheGeometry(2 * 512, 512, 1),
            CacheGeometry(8 * 512, 512, 1),
            CacheGeometry(8 * 512, 512, 2),
            CacheGeometry(4 * 128, 128, 2),
        ]),
        st.none(),
    ),
    st.tuples(
        st.sampled_from([
            CacheGeometry(4 * 512, 512, 2),
            CacheGeometry(8 * 512, 512, 2),
            CacheGeometry(4 * 128, 128, 2),
        ]),
        st.sampled_from([
            VictimCacheParams(entries=1),
            VictimCacheParams(entries=2),
            VictimCacheParams(entries=16),
            VictimCacheParams(entries=4, line_bytes=64),
        ]),
    ),
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
    @given(refs=_cb_refs, config=_cb_configs)
    def test_matches_oracle(self, refs, config):
        geometry, victim = config
        addrs = np.asarray([a for a, _ in refs], dtype=np.int64)
        writes = np.asarray([w for _, w in refs], dtype=bool)
        fast = column_buffer_fast(addrs, writes, geometry, victim)
        exact = column_buffer_exact(addrs, writes, geometry, victim)
        _assert_results_identical(fast, exact)

    def test_empty_trace(self):
        geom = CacheGeometry(8 * 512, 512, 1)
        result = column_buffer_fast(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), geom
        )
        assert result.miss_flags.size == 0
        assert result.stats.accesses == 0

    def test_thrash_with_victim_feedback(self):
        # The canonical feedback case: three hot words alias in one set
        # of a 2-way buffer.  Once the victim buffer holds the displaced
        # word it is served victim-side, so its column is never refilled
        # and the main cache's contents depend on victim state.
        geom = CacheGeometry(8 * 512, 512, 2)
        addrs = np.asarray([0, 2048, 4096] * 25, dtype=np.int64)
        writes = np.zeros(addrs.size, dtype=bool)
        victim = VictimCacheParams()
        fast = column_buffer_fast(addrs, writes, geom, victim)
        exact = column_buffer_exact(addrs, writes, geom, victim)
        _assert_results_identical(fast, exact)
        # Every repeat of the displaced hot word is served victim-side.
        assert fast.victim_hits == 24
        assert fast.miss_flags.sum() == 3

    @settings(max_examples=30, deadline=None)
    @given(refs=_cb_refs)
    def test_run_collapse_handles_write_splits(self, refs):
        # Load/store hit split within collapsed runs (prefix-sum path).
        geom = CacheGeometry(2 * 512, 512, 2)
        addrs = np.asarray([a % 2048 for a, _ in refs], dtype=np.int64)
        writes = np.asarray([w for _, w in refs], dtype=bool)
        fast = column_buffer_fast(addrs, writes, geom, None)
        exact = column_buffer_exact(addrs, writes, geom, None)
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
        exact = column_buffer_exact(addrs, writes, geom, None)
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
        exact = column_buffer_exact(addrs, writes, geom, None)
        _assert_results_identical(fast, exact)
        assert (fast.stats.evictions, fast.stats.writebacks) == (2, 1)


# Chunk sizes for the victim replay small enough that the cases below
# cross many chunk edges.
_REPLAY_CHUNKS = (1, 2, 7)
# Hot spots: a dozen columns 1 KB apart (two sets at most in the
# geometries below), touched at a few offsets, so the victim buffer
# fills, hits and evicts in LRU order within a short trace.
_hot_refs = st.lists(
    st.tuples(st.builds(lambda column, offset: column * 1024 + offset,
                        st.integers(0, 11), st.sampled_from([0, 40, 100, 300])),
              st.booleans()),
    min_size=1, max_size=250,
)


class TestChunkedVictimReplay:
    """The victim replay streams its runs in chunks: with the chunk size
    patched down to a few runs, every chunk edge must be invisible in
    every result field."""

    @settings(max_examples=80, deadline=None)
    @given(refs=st.one_of(_cb_refs, _hot_refs),
           chunk=st.sampled_from(_REPLAY_CHUNKS),
           geometry=st.sampled_from([CacheGeometry(4 * 512, 512, 2),
                                     CacheGeometry(8 * 512, 512, 2)]),
           victim=st.builds(VictimCacheParams,
                            entries=st.sampled_from([1, 2, 16]),
                            line_bytes=st.sampled_from([16, 32, 64, 1024])),
           sub_block_bytes=st.sampled_from([32, 64, 512]))
    def test_matches_oracle(self, refs, chunk, geometry, victim,
                            sub_block_bytes):
        addrs = np.asarray([a for a, _ in refs], dtype=np.int64)
        writes = np.asarray([w for _, w in refs], dtype=bool)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fast_engine, "_REPLAY_CHUNK", chunk)
            fast = column_buffer_fast(addrs, writes, geometry, victim,
                                      sub_block_bytes)
        exact = column_buffer_exact(addrs, writes, geometry, victim,
                                    sub_block_bytes)
        _assert_results_identical(fast, exact)

    @pytest.mark.parametrize("chunk", _REPLAY_CHUNKS)
    @pytest.mark.parametrize("pad", range(8))
    def test_victim_served_run_and_dirty_reinsert_on_chunk_edges(
        self, chunk, pad
    ):
        # A 2-set 2-way buffer.  A to E are columns of set 0; ``pad``
        # leading runs alternate between two columns of set 1, so over
        # the pads each event below lands on every offset within a chunk.
        geom = CacheGeometry(4 * 512, 512, 2)
        a, b, c, d, e = (i * 1024 for i in range(5))
        refs = [(512 + 2048 * (i % 2), False) for i in range(pad)]
        refs += [
            (a, False), (b, False), (c, False),  # C evicts A to the victim
            (a + 4, False), (a + 8, True),  # one run, all victim-served,
                                            # dirties A's block
            (a + 256, False), (a, False),  # misses, refills A ending at 0
            (d, False), (e, False),  # E evicts A: its block is re-inserted
        ]
        addrs = np.asarray([r[0] for r in refs], dtype=np.int64)
        writes = np.asarray([r[1] for r in refs], dtype=bool)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fast_engine, "_REPLAY_CHUNK", chunk)
            fast = column_buffer_fast(addrs, writes, geom, VictimCacheParams())
        exact = column_buffer_exact(addrs, writes, geom, VictimCacheParams())
        _assert_results_identical(fast, exact)
        served = pad + 3
        assert fast.victim_hit_flags.tolist()[served:] == [
            True, True, False, False, False, False]
        assert not fast.miss_flags[served:served + 2].any()
        # The dirty resident copy is superseded by a clean one: one
        # victim writeback, and none left over at the end.
        assert fast.victim_writebacks == 1

    @pytest.mark.parametrize("chunk", _REPLAY_CHUNKS)
    @pytest.mark.parametrize("pad", range(8))
    def test_victim_lru_order_carries_across_chunk_edges(self, chunk, pad):
        # A 2-entry victim buffer behind a 2-set 2-way buffer; C0 to C4
        # are columns of set 0.  The hit on C0's block makes C1's the
        # LRU block, so C2's insert evicts C1's, not C0's.
        geom = CacheGeometry(4 * 512, 512, 2)
        c0, c1, c2, c3, c4 = (i * 1024 for i in range(5))
        refs = [(512 + 2048 * (i % 2), False) for i in range(pad)]
        refs += [(c0, False), (c1, False), (c2, False), (c3, False),
                 (c0, False), (c4, False), (c0, False), (c1, False)]
        addrs = np.asarray([r[0] for r in refs], dtype=np.int64)
        writes = np.asarray([r[1] for r in refs], dtype=bool)
        victim = VictimCacheParams(entries=2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fast_engine, "_REPLAY_CHUNK", chunk)
            fast = column_buffer_fast(addrs, writes, geom, victim)
        exact = column_buffer_exact(addrs, writes, geom, victim)
        _assert_results_identical(fast, exact)
        assert fast.victim_hit_flags.tolist()[pad:] == [
            False, False, False, False, True, False, True, False]


class TestSimulateColumnBuffer:
    def _trace(self):
        return ReferenceTrace.reads([0, 4096, 0, 512, 4096, 8192, 0])

    def test_engines_agree(self):
        geom = CacheGeometry(8 * 512, 512, 2)
        victim = VictimCacheParams()
        trace = self._trace()
        fast = simulate_column_buffer(trace, geom, victim)
        exact = column_buffer_exact(trace.addresses, trace.is_write, geom,
                                    victim)
        _assert_results_identical(fast, exact)

    def test_fast_engine_rejects_unsupported_config(self):
        for sub_block_bytes in (48, 1024):
            with pytest.raises(ValueError, match=f"{sub_block_bytes} B sub-blocks"):
                simulate_column_buffer(
                    self._trace(),
                    CacheGeometry(8 * 512, 512, 1),
                    sub_block_bytes=sub_block_bytes,
                )


# Interleaved (instruction block, data block) pairs, empty blocks
# included, over small L1s and a shared L2 with longer lines.
_block_refs = st.lists(
    st.tuples(st.integers(0, 1 << 14), st.booleans()), max_size=40
)
_SMALL_SYSTEM = ConventionalSystemParams(
    l1i=CacheGeometry(1 * KB, 32, 1),
    l1d=CacheGeometry(1 * KB, 32, 2),
    l2=CacheGeometry(4 * KB, 64, 2),
)


def _stream(traces):
    """One stream of the blocks' traces, and a map from its reference
    indices to their block ids."""
    ids = np.repeat(np.arange(len(traces)), [len(t) for t in traces])
    trace = ReferenceTrace.concat(traces)
    return trace.addresses, trace.is_write, lambda index: ids[index]


def _two_level(blocks):
    return _conventional_stats(*_stream([i for i, _ in blocks]),
                               *_stream([d for _, d in blocks]), _SMALL_SYSTEM)


class TestTwoLevelDifferential:
    """The shared-L2 merge of ``measure_conventional`` against the two
    object-oriented hierarchies fed block by block."""

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(_block_refs, _block_refs),
                          min_size=1, max_size=8))
    def test_matches_hierarchy(self, pairs):
        blocks = [(ReferenceTrace.from_pairs(i), ReferenceTrace.from_pairs(d))
                  for i, d in pairs]
        ihier, dhier = conventional_hierarchies(_SMALL_SYSTEM)
        for i_block, d_block in blocks:
            ihier.run(i_block)
            dhier.run(d_block)
        assert _two_level(blocks) == (ihier.stats, dhier.stats)

    def test_l2_stream_is_l1_miss_stream(self):
        blocks = [(ReferenceTrace.reads([0, 32, 0, 1024, 0, 1024]),
                   ReferenceTrace.reads([4096, 4096, 8192]))]
        istats, dstats = _two_level(blocks)
        # 0, 32 and 1024 miss the direct-mapped L1i; 0 misses again
        # after 1024 evicted it, and so does 1024.  4096 and 8192 miss
        # the 2-way L1d once each.
        assert istats.l2.total == 5
        assert dstats.l2.total == 2


# Geometries of 32 B lines for set_assoc_miss_rates: 1 and 2 ways, set
# counts from 1 up, on both sides of 256 and of 65,536 (the two radix
# key widths), Figure 7/8's among them.
_RATE_GEOMETRIES = (
    CacheGeometry(32, 32, 1),
    CacheGeometry(64, 32, 2),
    CacheGeometry(4 * KB, 32, 1),
    CacheGeometry(8 * KB, 32, 1),
    CacheGeometry(16 * KB, 32, 1),
    CacheGeometry(16 * KB, 32, 2),
    CacheGeometry(64 * KB, 32, 1),
    CacheGeometry(256 * KB, 32, 1),
    CacheGeometry(2 * MB, 32, 1),
    CacheGeometry(4 * MB, 32, 1),
    CacheGeometry(8 * MB, 32, 2),
)


class TestSetAssocMissRates:
    """One set sort per trace, re-sorted on the new index bits per set
    count, against each geometry's own miss flags."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           geometries=st.lists(st.sampled_from(_RATE_GEOMETRIES),
                               min_size=1, max_size=8))
    def test_equals_mean_of_miss_flags(self, data, geometries):
        # Addresses alias in sets on both sides of 65,536 of the widest
        # geometry; narrower ones see the same lines fold together.
        addrs = np.asarray(data.draw(_wide_addrs(CacheGeometry(8 * MB, 32, 2))),
                           dtype=np.int64)
        expected = [float(set_assoc_miss_flags(addrs, g).mean())
                    for g in geometries]
        assert set_assoc_miss_rates(addrs, geometries) == expected

    def test_order_and_duplicates(self):
        addrs = get_proxy("126.gcc").data_trace(5_000, seed=0).addresses
        geometries = list(_RATE_GEOMETRIES)
        forward = set_assoc_miss_rates(addrs, geometries)
        assert forward == [set_assoc_miss_rate(addrs, g) for g in geometries]
        reverse = set_assoc_miss_rates(addrs, geometries[::-1] * 2)
        assert reverse == forward[::-1] * 2

    def test_empty_trace(self):
        before = tally.snapshot()
        assert set_assoc_miss_rates(np.zeros(0, dtype=np.int64),
                                    _RATE_GEOMETRIES[:3]) == [0.0] * 3
        assert set_assoc_miss_rates(np.zeros(0, dtype=np.int64), []) == []
        assert tally.since(before).get("cache_refs", 0) == 0

    def test_rejects_more_than_two_ways(self):
        with pytest.raises(ValueError, match="4-way 4096 B cache with 32 B "
                                             "lines; simulate it with "
                                             "SetAssociativeCache"):
            set_assoc_miss_rates(np.array([0], dtype=np.int64),
                                 [CacheGeometry(8 * KB, 32, 1),
                                  CacheGeometry(4 * KB, 32, 4)])

    def test_rejects_mixed_line_sizes(self):
        with pytest.raises(ValueError, match="1-way 8192 B cache with 64 B "
                                             "lines"):
            set_assoc_miss_rates(np.array([0], dtype=np.int64),
                                 [CacheGeometry(8 * KB, 32, 1),
                                  CacheGeometry(8 * KB, 64, 1)])


class TestFigureTallies:
    """A Figure 7 row credits its n-reference trace to five caches and a
    Figure 8 row to seven; perfbench's ``missrate`` rate counts these."""

    N = 3_000

    @pytest.mark.parametrize("figure, caches", [(figure7, 5), (figure8, 7)])
    def test_cache_refs_per_row(self, figure, caches):
        before = tally.snapshot()
        figure(trace_len=self.N, names=("126.gcc",))
        delta = tally.since(before)
        assert delta["cache_refs"] == caches * self.N
        assert delta["trace_refs"] == self.N
