"""Set-associative and direct-mapped caches with true-LRU replacement.

These are the "conventional" caches of Figures 7 and 8: 32-byte lines,
direct-mapped or 2-way, in sizes from 8 KB to 256 KB.  Replacement is exact
LRU, tracked per set by recency-ordered tag lists (fast for the small
associativities the paper studies).
"""

from __future__ import annotations

from repro.common.address import index_fields
from repro.common.params import CacheGeometry
from repro.caches.base import Cache


class SetAssociativeCache(Cache):
    """k-way set-associative write-back write-allocate cache with LRU
    replacement.

    ``geometry.associativity == 0`` selects a fully-associative cache.
    ``on_evict`` (if given) is called with the byte address of each evicted
    line; the column-buffer cache uses this hook to feed its victim cache.
    Writes mark lines dirty; evicting a dirty line counts a writeback
    (``stats.writebacks``), the traffic the integrated design hides with
    speculative writebacks (Section 4.1).
    """

    def __init__(self, geometry: CacheGeometry, on_evict=None) -> None:
        super().__init__()
        self.geometry = geometry
        self._num_sets = geometry.num_sets
        self._ways = geometry.ways
        self._line = geometry.line_bytes
        self._line_shift, self._set_mask, self._tag_shift = index_fields(
            self._line, self._num_sets
        )
        self._on_evict = on_evict
        # Each set is a list of tags, most-recently-used last.
        self._sets: list[list[int]] = [[] for _ in range(self._num_sets)]
        self._dirty: set[tuple[int, int]] = set()  # (set index, tag)

    def _split(self, addr: int) -> tuple[int, int]:
        """``(set index, tag)`` of ``addr``."""
        return (addr >> self._line_shift) & self._set_mask, addr >> self._tag_shift

    def _lookup_and_update(self, addr: int, write: bool) -> bool:
        index = (addr >> self._line_shift) & self._set_mask
        tag = addr >> self._tag_shift
        tags = self._sets[index]
        if tag in tags:
            if tags[-1] != tag:
                tags.remove(tag)
                tags.append(tag)
            if write:
                self._dirty.add((index, tag))
            return True
        if len(tags) >= self._ways:
            evicted_tag = tags.pop(0)
            self.stats.evictions += 1
            if (index, evicted_tag) in self._dirty:
                self._dirty.discard((index, evicted_tag))
                self.stats.writebacks += 1
            if self._on_evict is not None:
                evicted_addr = self._line_address(evicted_tag, index)
                self._on_evict(evicted_addr)
        tags.append(tag)
        if write:
            self._dirty.add((index, tag))
        return False

    def is_dirty(self, addr: int) -> bool:
        """True when the line holding ``addr`` is resident and dirty."""
        return self._split(addr) in self._dirty

    def _line_address(self, tag: int, index: int) -> int:
        return (tag << self._tag_shift) | (index << self._line_shift)

    def hit_mru(self, addr: int) -> bool:
        """Serve a load that hits its set's most recently used line.

        On such a hit ``access(addr)`` would change no cache state, so
        this only returns True; otherwise it returns False.  It counts
        nothing: the MP engine serves its local fast path here and credits
        the hits once per run through :meth:`credit_mru_hits`.  The MP
        node caches see every reference as a load, so there is no write
        flag to apply.
        """
        tags = self._sets[(addr >> self._line_shift) & self._set_mask]
        return bool(tags) and tags[-1] == addr >> self._tag_shift

    def contains(self, addr: int) -> bool:
        """Non-mutating membership probe (does not touch LRU or stats)."""
        index, tag = self._split(addr)
        return tag in self._sets[index]

    def invalidate(self, addr: int) -> None:
        """Drop the line containing ``addr`` without eviction callbacks."""
        index, tag = self._split(addr)
        tags = self._sets[index]
        if tag in tags:
            tags.remove(tag)
            self._dirty.discard((index, tag))

    def resident_lines(self) -> list[int]:
        """Byte addresses of all resident lines (for invariants/tests)."""
        lines = []
        for index, tags in enumerate(self._sets):
            for tag in tags:
                lines.append(self._line_address(tag, index))
        return lines

    def reset(self) -> None:
        super().reset()
        self._sets = [[] for _ in range(self._num_sets)]
        self._dirty = set()

