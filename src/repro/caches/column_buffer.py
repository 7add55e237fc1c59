"""The DRAM column-buffer caches of Section 4.1.

Each of the 16 DRAM banks transfers a whole 4 Kbit (512 byte) column
between the sense amplifiers and its column buffers in one access, so the
cache line size equals the column size and a miss fills the entire line at
"zero" cost beyond the array access itself.

Geometrically the data cache is a 2-way set-associative cache whose sets
are the banks (two data columns per bank, 32 x 512 B = 16 KB) and the
instruction cache is direct-mapped (one column per bank, 16 x 512 B =
8 KB).  What distinguishes this model from a plain set-associative cache
is the victim-cache coupling: the cache tracks the most recently accessed
32-byte sub-block of every resident line, and on eviction hands exactly
that sub-block to the victim cache (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.address import index_fields
from repro.common.errors import ConfigError
from repro.common.params import CacheGeometry, IntegratedDeviceParams
from repro.common.units import is_power_of_two
from repro.caches.base import Cache
from repro.caches.victim import VictimCache


@dataclass
class _Line:
    tag: int
    last_sub_addr: int  # byte address of the most recently accessed sub-block
    dirty: bool = False


class ColumnBufferCache(Cache):
    """Column-buffer cache with optional victim-cache coupling.

    A victim hit counts as a cache hit in the statistics (both cost one
    cycle, Table 6); ``main_hits`` / ``victim_hits`` split them apart.
    On a victim hit the column buffer is *not* refilled (line-size
    disparity, Section 5.4), and a write served from the victim buffer
    marks the victim block dirty — its eventual departure from the
    buffer counts a writeback there (``victim.writebacks``), separate
    from the column writebacks in ``stats.writebacks``;
    ``total_writebacks`` sums both.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        victim: VictimCache | None = None,
        sub_block_bytes: int = 32,
        on_evict_line=None,
    ) -> None:
        super().__init__()
        if not is_power_of_two(sub_block_bytes):
            raise ConfigError(
                f"sub-block size {sub_block_bytes} must be a power of two"
            )
        if sub_block_bytes > geometry.line_bytes:
            raise ConfigError(
                "sub-block size cannot exceed the line (column) size"
            )
        self.geometry = geometry
        self.victim = victim
        self.sub_block_bytes = sub_block_bytes
        self._on_evict_line = on_evict_line  # called with (line_addr, dirty)
        self._num_sets = geometry.num_sets
        self._ways = geometry.ways
        self._line = geometry.line_bytes
        self._line_shift, self._set_mask, self._tag_shift = index_fields(
            self._line, self._num_sets
        )
        self._sub_mask = ~(sub_block_bytes - 1)
        self._sets: list[list[_Line]] = [[] for _ in range(self._num_sets)]
        self.main_hits = 0
        self.victim_hits = 0
        self.last_hit_was_victim = False

    def _lookup_and_update(self, addr: int, write: bool) -> bool:
        index = (addr >> self._line_shift) & self._set_mask
        tag = addr >> self._tag_shift
        lines = self._sets[index]
        sub_addr = addr & self._sub_mask
        self.last_hit_was_victim = False
        for pos, line in enumerate(lines):
            if line.tag == tag:
                line.last_sub_addr = sub_addr
                line.dirty = line.dirty or write
                if pos != len(lines) - 1:
                    lines.append(lines.pop(pos))
                self.main_hits += 1
                return True
        if self.victim is not None and self.victim.probe(addr, write):
            # Served from the victim buffer; the column buffer is NOT
            # refilled (line-size disparity, Section 5.4).  The probe
            # records write-dirtiness victim-side: the buffer now holds
            # the only copy of the modified sub-block.
            self.victim_hits += 1
            self.last_hit_was_victim = True
            return True
        # Miss: evict the set's LRU column, capturing its hot sub-block.
        if len(lines) >= self._ways:
            evicted = lines.pop(0)
            self.stats.evictions += 1
            if evicted.dirty:
                self.stats.writebacks += 1
            if self._on_evict_line is not None:
                self._on_evict_line(self._line_address(evicted.tag, index),
                                    evicted.dirty)
            if self.victim is not None:
                self.victim.insert(evicted.last_sub_addr)
        lines.append(_Line(tag=tag, last_sub_addr=sub_addr, dirty=write))
        return False

    def hit_mru(self, addr: int) -> bool:
        """Serve a load that hits its set's most recently used column.

        On such a hit this makes the one state change ``access(addr)``
        makes, the line's hot sub-block, and returns True; otherwise it
        changes nothing and returns False.  It counts nothing: the MP
        engine serves its local fast path here and credits the hits once
        per run through :meth:`credit_mru_hits` (``last_hit_was_victim``
        keeps describing the last :meth:`access`).  The MP node caches see
        every reference as a load, so there is no write flag to apply.
        """
        lines = self._sets[(addr >> self._line_shift) & self._set_mask]
        if not lines or lines[-1].tag != addr >> self._tag_shift:
            return False
        lines[-1].last_sub_addr = addr & self._sub_mask
        return True

    def credit_mru_hits(self, count: int) -> None:
        super().credit_mru_hits(count)
        self.main_hits += count

    def contains(self, addr: int) -> bool:
        """Non-mutating probe of the column buffers only."""
        tag = addr >> self._tag_shift
        lines = self._sets[(addr >> self._line_shift) & self._set_mask]
        return any(line.tag == tag for line in lines)

    def _line_address(self, tag: int, index: int) -> int:
        """Exact inverse of the (index, tag) split."""
        return (tag << self._tag_shift) | (index << self._line_shift)

    @property
    def total_writebacks(self) -> int:
        """Column writebacks plus victim-buffer writebacks."""
        victim_wb = self.victim.writebacks if self.victim is not None else 0
        return self.stats.writebacks + victim_wb

    def resident_lines(self) -> list[int]:
        """Byte addresses of resident column-buffer lines.

        The reconstruction is the exact inverse of
        :func:`~repro.common.address.set_index` /
        :func:`~repro.common.address.tag_of` because
        :class:`~repro.common.params.CacheGeometry` rejects
        non-power-of-two line sizes and set counts (see the
        address-roundtrip tests).
        """
        return [self._line_address(line.tag, index)
                for index, lines in enumerate(self._sets) for line in lines]

    def reset(self) -> None:
        super().reset()
        self._sets = [[] for _ in range(self._num_sets)]
        self.main_hits = 0
        self.victim_hits = 0
        # A stale True here would be observable (e.g. by the MP node's
        # hit-level classification) before the first post-reset access.
        self.last_hit_was_victim = False
        if self.victim is not None:
            self.victim.reset()


def proposed_icache(params: IntegratedDeviceParams | None = None) -> ColumnBufferCache:
    """The paper's 8 KB direct-mapped column-buffer instruction cache."""
    params = params or IntegratedDeviceParams()
    return ColumnBufferCache(params.icache_geometry)


def proposed_dcache(
    params: IntegratedDeviceParams | None = None,
    with_victim: bool = True,
) -> ColumnBufferCache:
    """The paper's 16 KB 2-way column-buffer data cache (+victim cache)."""
    params = params or IntegratedDeviceParams()
    victim = VictimCache(params.victim) if with_victim else None
    return ColumnBufferCache(params.dcache_geometry, victim=victim)
