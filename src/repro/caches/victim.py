"""The victim cache of Section 5.4.

A 16-entry fully-associative LRU buffer of 32-byte blocks.  It differs from
Jouppi's original victim cache in two ways the paper calls out:

- On a column-buffer eviction it captures only the *most recently accessed*
  32-byte sub-block of the 512-byte victim line (the copy is hidden in the
  DRAM access window, and main-cache bandwidth limits it to one sub-block).
- Because of the line-size disparity its contents are never reloaded into
  the main cache; hits are served from the buffer directly.

Because hits are served in place, a *write* hit modifies data that exists
nowhere else: the buffer tracks a dirty bit per block, and a dirty copy
contributes one writeback (``writebacks``) when it leaves the buffer — by
LRU eviction, by coherence :meth:`invalidate`, or by being overwritten when
:meth:`insert` captures a fresh copy of the same block from an evicted
column (the incoming copy rides the column's own DRAM writeback, so it
starts clean; the superseded modified data still had to be merged out).
Dirty blocks still resident when the simulation ends are not counted,
matching how the main caches account writebacks.
"""

from __future__ import annotations

from repro.common.params import VictimCacheParams


class VictimCache:
    """Fully-associative LRU buffer of small blocks.

    This is deliberately *not* a :class:`repro.caches.base.Cache`: it never
    sees the full reference stream, only probes on main-cache misses and
    inserts on main-cache evictions, so it keeps its own probe statistics.
    """

    def __init__(self, params: VictimCacheParams | None = None) -> None:
        self.params = params or VictimCacheParams()
        self._block_mask = ~(self.params.line_bytes - 1)
        self._blocks: list[int] = []  # block addresses, MRU last
        self._dirty: set[int] = set()
        self.probes = 0
        self.hits = 0
        self.inserts = 0
        self.writebacks = 0

    @property
    def line_bytes(self) -> int:
        return self.params.line_bytes

    def _retire(self, block: int) -> None:
        """Account for a block's copy leaving (or being superseded in)
        the buffer: dirty data must be written back."""
        if block in self._dirty:
            self._dirty.discard(block)
            self.writebacks += 1

    def probe(self, addr: int, write: bool = False) -> bool:
        """Check for ``addr`` on a main-cache miss; promotes on hit.

        A write served from the buffer marks the block dirty (Section
        5.4: victim contents are never reloaded into the main cache, so
        the buffer holds the only copy of the modified data).
        """
        self.probes += 1
        block = addr & self._block_mask
        if block in self._blocks:
            self.hits += 1
            if self._blocks[-1] != block:
                self._blocks.remove(block)
                self._blocks.append(block)
            if write:
                self._dirty.add(block)
            return True
        return False

    def insert(self, addr: int) -> None:
        """Capture the 32 B block containing ``addr`` (LRU replacement).

        Re-inserting a resident block refreshes it in place (promoted to
        MRU, no other entry is evicted).  The captured copy starts clean:
        it travels with the evicted column, whose dirty data the main
        cache already wrote back wholesale.
        """
        self.inserts += 1
        block = addr & self._block_mask
        if block in self._blocks:
            self._blocks.remove(block)
            self._retire(block)
        elif len(self._blocks) >= self.params.entries:
            self._retire(self._blocks.pop(0))
        self._blocks.append(block)

    def contains(self, addr: int) -> bool:
        """Non-mutating membership probe."""
        return (addr & self._block_mask) in self._blocks

    def is_dirty(self, addr: int) -> bool:
        """True when the block containing ``addr`` is resident and dirty."""
        block = addr & self._block_mask
        return block in self._blocks and block in self._dirty

    def invalidate(self, addr: int) -> None:
        """Drop the block containing ``addr`` (coherence invalidation).

        Invalidating a dirty block counts a writeback: the modified data
        is merged back to its home before the copy is discarded.
        """
        block = addr & self._block_mask
        if block in self._blocks:
            self._blocks.remove(block)
            self._retire(block)

    def resident_blocks(self) -> list[int]:
        return list(self._blocks)

    @property
    def hit_rate(self) -> float:  # repro: unit(fraction)
        return self.hits / self.probes if self.probes else 0.0

    def reset(self) -> None:
        self._blocks = []
        self._dirty = set()
        self.probes = 0
        self.hits = 0
        self.inserts = 0
        self.writebacks = 0
