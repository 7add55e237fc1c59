"""The Inter-Node Cache (Figure 6).

Imported (remote) data is cached in a reserved fraction of local DRAM.
Seven 32-byte lines live in each 256-byte half-column alongside a
32-byte tag block, making the cache 7-way set-associative; every access
pays the local-memory latency plus one tag-check cycle (Table 6).
"""

from __future__ import annotations

from repro.common.address import index_fields
from repro.common.errors import ConfigError
from repro.common.params import COHERENCE_UNIT_BYTES, INC_WAYS
from repro.common.units import MB, is_power_of_two


class InterNodeCache:
    """7-way set-associative LRU cache of imported 32 B blocks.

    ``probe`` looks a block up (updating LRU and hit statistics),
    ``install`` allocates after a remote fill, ``invalidate`` drops a
    block on a coherence invalidation, and ``on_evict`` (if given) is
    called with the address of every block displaced by ``install`` so
    the directory can retire the copy.  A set's tag list is allocated by
    the first ``install`` into it; lookups allocate nothing.
    """

    def __init__(self, reserved_bytes: int = 1 * MB, on_evict=None) -> None:
        sets = reserved_bytes // (8 * COHERENCE_UNIT_BYTES)
        if sets < 1 or not is_power_of_two(sets):
            raise ConfigError("INC reservation must give a power-of-two set count")
        self.reserved_bytes = reserved_bytes
        self.ways = INC_WAYS
        self.line_bytes = COHERENCE_UNIT_BYTES
        self.num_sets = sets
        self._line_shift, self._set_mask, self._tag_shift = index_fields(
            self.line_bytes, sets
        )
        self._on_evict = on_evict
        self._sets: dict[int, list[int]] = {}  # set index -> tags, MRU last
        self.probes = 0
        self.hits = 0
        self.installs = 0
        self.evictions = 0

    def _locate(self, addr: int) -> tuple[list[int], int]:
        """The tags of ``addr``'s set (``()`` if never installed into)."""
        return (self._sets.get((addr >> self._line_shift) & self._set_mask, ()),
                addr >> self._tag_shift)

    def probe(self, addr: int) -> bool:
        self.probes += 1
        tags, tag = self._locate(addr)
        if tag in tags:
            self.hits += 1
            if tags[-1] != tag:
                tags.remove(tag)
                tags.append(tag)
            return True
        return False

    def install(self, addr: int) -> None:
        index = (addr >> self._line_shift) & self._set_mask
        tags = self._sets.get(index)
        if tags is None:
            tags = self._sets[index] = []
        tag = addr >> self._tag_shift
        if tag in tags:
            tags.remove(tag)
            tags.append(tag)
            return
        if len(tags) >= self.ways:
            victim_tag = tags.pop(0)
            self.evictions += 1
            if self._on_evict is not None:
                # Same set as ``addr``: keep its index bits, swap the tag.
                index_bits = addr & (self._set_mask << self._line_shift)
                self._on_evict((victim_tag << self._tag_shift) | index_bits)
        tags.append(tag)
        self.installs += 1

    def invalidate(self, addr: int) -> None:
        tags, tag = self._locate(addr)
        if tag in tags:
            tags.remove(tag)

    def contains(self, addr: int) -> bool:
        tags, tag = self._locate(addr)
        return tag in tags

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def reset(self) -> None:
        self._sets = {}
        self.probes = 0
        self.hits = 0
        self.installs = 0
        self.evictions = 0
