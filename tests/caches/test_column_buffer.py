import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.column_buffer import (
    ColumnBufferCache,
    proposed_dcache,
    proposed_icache,
)
from repro.caches.victim import VictimCache
from repro.common.address import index_fields
from repro.common.errors import ConfigError
from repro.common.params import CacheGeometry
from repro.common.units import KB
from repro.trace.stream import ReferenceTrace


class TestGeometry:
    def test_proposed_icache_shape(self):
        cache = proposed_icache()
        assert cache.geometry.size_bytes == 8 * KB
        assert cache.geometry.line_bytes == 512
        assert cache.geometry.ways == 1

    def test_proposed_dcache_shape(self):
        cache = proposed_dcache()
        assert cache.geometry.size_bytes == 16 * KB
        assert cache.geometry.ways == 2
        assert cache.victim is not None

    def test_dcache_without_victim(self):
        assert proposed_dcache(with_victim=False).victim is None


class TestLongLinePrefetch:
    def test_one_miss_covers_whole_column(self):
        cache = proposed_icache()
        assert not cache.access(0)
        # All 128 remaining words of the 512 B line hit.
        for offset in range(4, 512, 4):
            assert cache.access(offset)
        assert cache.stats.misses == 1

    def test_sequential_code_miss_rate_is_one_per_line(self):
        cache = proposed_icache()
        trace = ReferenceTrace.reads(range(0, 8 * KB, 4))
        stats = cache.run(trace)
        assert stats.misses == 16  # one per 512 B line
        assert stats.miss_rate == pytest.approx(16 / 2048)


class TestVictimCoupling:
    def test_eviction_captures_last_accessed_subblock(self):
        victim = VictimCache()
        cache = ColumnBufferCache(CacheGeometry(8 * KB, 512, 1), victim=victim)
        cache.access(0x000)
        cache.access(0x0A4)  # last accessed sub-block is 0x0A0
        cache.access(0x000 + 8 * KB)  # evicts line 0
        assert victim.contains(0x0A0)
        assert not victim.contains(0x000)

    def test_victim_hit_counts_as_hit_without_refill(self):
        victim = VictimCache()
        cache = ColumnBufferCache(CacheGeometry(8 * KB, 512, 1), victim=victim)
        cache.access(0)
        cache.access(8 * KB)  # evict line 0, victim holds block 0
        hit = cache.access(0)  # served by victim
        assert hit
        assert cache.victim_hits == 1
        assert not cache.contains(0)  # not reloaded into a column buffer

    def test_victim_miss_still_loads_column(self):
        victim = VictimCache()
        cache = ColumnBufferCache(CacheGeometry(8 * KB, 512, 1), victim=victim)
        cache.access(0)
        cache.access(8 * KB)
        cache.access(0x40)  # block 0x40 not in victim (only block 0 is)
        assert cache.contains(0x40)

    def test_conflict_pattern_absorbed_by_victim(self):
        """Two aliasing hot words thrash a direct-mapped column cache but
        hit in the victim cache (the Section 5.4 effect)."""
        plain = ColumnBufferCache(CacheGeometry(8 * KB, 512, 1))
        with_victim = ColumnBufferCache(
            CacheGeometry(8 * KB, 512, 1), victim=VictimCache()
        )
        for _ in range(50):
            for addr in (0, 8 * KB):
                plain.access(addr)
                with_victim.access(addr)
        assert plain.stats.miss_rate > 0.9
        assert with_victim.stats.miss_rate < 0.1


class TestStatsAndReset:
    def test_main_plus_victim_plus_miss_partition(self):
        cache = proposed_dcache()
        trace = ReferenceTrace.reads([0, 8 * KB, 16 * KB, 0, 512, 8 * KB])
        cache.run(trace)
        assert cache.main_hits + cache.victim_hits + cache.stats.misses == len(trace)

    def test_reset_clears_victim_too(self):
        cache = proposed_dcache()
        cache.access(0)
        cache.access(8 * KB)
        cache.access(16 * KB)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.victim.probes == 0
        assert not cache.contains(0)

    def test_resident_lines_report_addresses(self):
        cache = proposed_icache()
        cache.access(0x200)
        assert cache.resident_lines() == [0x200]

    def test_reset_clears_victim_hit_flag(self):
        # Regression: reset() used to leave last_hit_was_victim stale,
        # which the MP node's hit-level classification reads before the
        # first post-reset access.
        cache = proposed_dcache()
        cache.access(0)
        cache.access(16 * KB)  # evict line 0 into the victim buffer
        cache.access(32 * KB)
        assert cache.access(0)  # served by the victim
        assert cache.last_hit_was_victim
        cache.reset()
        assert not cache.last_hit_was_victim


class TestConstructorValidation:
    def test_rejects_non_power_of_two_sub_block(self):
        with pytest.raises(ConfigError):
            ColumnBufferCache(CacheGeometry(8 * KB, 512, 1), sub_block_bytes=48)

    def test_rejects_sub_block_larger_than_line(self):
        with pytest.raises(ConfigError):
            ColumnBufferCache(CacheGeometry(8 * KB, 512, 1), sub_block_bytes=1024)

    def test_accepts_sub_block_equal_to_line(self):
        cache = ColumnBufferCache(CacheGeometry(8 * KB, 512, 1), sub_block_bytes=512)
        cache.access(0x123)
        assert cache.resident_lines() == [0]


class TestVictimWriteDirtiness:
    """A write served from the victim buffer modifies the only copy of
    the data (the column is not refilled), so the dirtiness must stick
    victim-side and surface as a victim writeback on departure."""

    def _thrashed_dcache(self):
        victim = VictimCache()
        cache = ColumnBufferCache(CacheGeometry(8 * KB, 512, 1), victim=victim)
        cache.access(0)
        cache.access(8 * KB)  # evict line 0; victim holds block 0
        return cache, victim

    def test_victim_write_hit_marks_block_dirty(self):
        cache, victim = self._thrashed_dcache()
        assert cache.access(0x10, write=True)
        assert cache.last_hit_was_victim
        assert victim.is_dirty(0)

    def test_dirty_victim_block_writes_back_on_departure(self):
        cache, victim = self._thrashed_dcache()
        cache.access(0x10, write=True)
        victim.invalidate(0)
        assert victim.writebacks == 1
        assert cache.total_writebacks == 1  # no column writebacks yet

    def test_victim_read_hit_stays_clean(self):
        cache, victim = self._thrashed_dcache()
        cache.access(0x10, write=False)
        assert not victim.is_dirty(0)
        victim.invalidate(0)
        assert victim.writebacks == 0

    def test_total_writebacks_sums_column_and_victim(self):
        cache, victim = self._thrashed_dcache()
        cache.access(0x10, write=True)  # dirty block 0 in the victim
        cache.access(512, write=True)  # dirty column in set 1
        cache.access(512 + 8 * KB)  # evict it: one column writeback
        # Fill the victim until dirty block 0 falls off the LRU end.
        for i in range(victim.params.entries):
            cache.access(16 * KB + i * 512)
            cache.access(24 * KB + i * 512)
        assert cache.stats.writebacks >= 1
        assert victim.writebacks >= 1
        assert cache.total_writebacks == cache.stats.writebacks + victim.writebacks


@settings(max_examples=40, deadline=None)
@given(
    addrs=st.lists(st.integers(0, 1 << 18), min_size=1, max_size=120),
    ways=st.sampled_from([1, 2, 4]),
    line=st.sampled_from([128, 512]),
    num_sets=st.sampled_from([1, 2, 4, 16]),
)
def test_resident_lines_roundtrip(addrs, ways, line, num_sets):
    """resident_lines() reconstructs byte addresses by inverting the
    set-index/tag split with bit shifts — exact because CacheGeometry
    rejects non-power-of-two line sizes and set counts."""
    geometry = CacheGeometry(line * num_sets * ways, line, ways)
    assert geometry.num_sets == num_sets
    cache = ColumnBufferCache(geometry)
    line_shift, set_mask, tag_shift = index_fields(line, num_sets)
    for addr in addrs:
        cache.access(addr)
    accessed_lines = {addr // line * line for addr in addrs}
    for resident in cache.resident_lines():
        assert resident % line == 0
        assert resident in accessed_lines
        # Reconstructed address decomposes back to the slot it came from.
        index = (resident >> line_shift) & set_mask
        tag = resident >> tag_shift
        assert any(
            entry.tag == tag for entry in cache._sets[index]
        ), "reconstructed address must map back to its own set"
