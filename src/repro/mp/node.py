"""Per-node memory systems for the MP study (Section 6.1).

Two node models share one interface:

- :class:`IntegratedNode` — the proposed device: column-buffer D-cache
  over local memory, a victim cache that doubles as the staging area for
  imported 32 B blocks, and a 7-way Inter-Node Cache in reserved DRAM.
- :class:`ReferenceNode` — the reference CC-NUMA: a 16 KB direct-mapped
  first-level cache backed by an *infinite* second-level cache.

A node model answers "which level holds this block?" and maintains its
contents under fills, invalidations and evictions; the latency of each
level and all protocol traffic is decided by
:class:`repro.mp.system.MPSystem`.

Coherence bookkeeping invariant: a node's *remote-copy* set equals its
INC contents (integrated) or SLC contents (reference).  Remote blocks
staged in the victim cache are tied to INC residency — they are dropped
when the INC evicts or invalidates the block — so the directory's sharer
sets remain exact.  Local blocks cached in column buffers (or FLC) need
no sharer entry: the home consults its directory on every local access
and recalls remotely-owned blocks.

The node caches see every reference as a load: ``lookup`` calls each
cache's ``access(addr)`` without the write flag.  Node-cache stores,
dirty bits and column writebacks are therefore not modelled in MP; the
directory tracks ownership.  ``mru_cache`` names the cache whose most
recently used lines serve the engine's local fast path.
"""

from __future__ import annotations

from typing import Callable
from enum import Enum

from repro.caches.column_buffer import ColumnBufferCache
from repro.caches.set_assoc import SetAssociativeCache
from repro.caches.victim import VictimCache
from repro.coherence.inc import InterNodeCache
from repro.common.params import (
    COHERENCE_UNIT_BYTES,
    CacheGeometry,
    IntegratedDeviceParams,
)
from repro.common.units import KB, MB


class HitLevel(Enum):
    """Which level served a data reference (maps to Table 6 latencies)."""

    CACHE = "cache"  # column buffer / FLC: 1 cycle
    VICTIM = "victim"  # victim cache: 1 cycle
    LOCAL_MEMORY = "local_memory"  # 6 cycles (a local miss fill)
    INC = "inc"  # 6 + 1 tag-check cycles
    SLC = "slc"  # reference second level: 6 cycles
    REMOTE = "remote"  # 80 cycles
    PAGE_FAULT = "page_fault"  # S-COMA page allocation (software cost)

    # Members are singletons, so identity hashing is exact, and unlike
    # Enum.__hash__ it runs in C: the MP system counts a level per access.
    __hash__ = object.__hash__


class IntegratedNode:
    """The proposed processor/memory device as one CC-NUMA node."""

    def __init__(
        self,
        node_id: int,
        params: IntegratedDeviceParams | None = None,
        inc_bytes: int = 1 * MB,
        with_victim: bool = True,
        on_remote_eviction: Callable[[int, int], None] | None = None,
    ) -> None:
        self.node_id = node_id
        self.params = params or IntegratedDeviceParams()
        self.victim = VictimCache(self.params.victim) if with_victim else None
        self.columns = ColumnBufferCache(
            self.params.dcache_geometry, victim=self.victim
        )
        self.mru_cache = self.columns

        def _inc_evicted(addr: int) -> None:
            # Staged victim copies are tied to INC residency.
            if self.victim is not None:
                self.victim.invalidate(addr)
            if on_remote_eviction is not None:
                on_remote_eviction(self.node_id, addr)

        self.inc = InterNodeCache(inc_bytes, on_evict=_inc_evicted)

    def lookup(self, addr: int, is_local: bool) -> HitLevel:
        """The level that serves ``addr``, looked up as a load."""
        if is_local:
            # Column buffers (and their victim) cache local memory; a miss
            # loads the column as part of the same DRAM access.
            if self.columns.access(addr):
                if self.columns.last_hit_was_victim:
                    return HitLevel.VICTIM
                return HitLevel.CACHE
            return HitLevel.LOCAL_MEMORY
        # Remote data: victim staging buffer first, then the INC.
        if self.victim is not None and self.victim.probe(addr):
            return HitLevel.VICTIM
        if self.inc.probe(addr):
            return HitLevel.INC
        return HitLevel.REMOTE

    def fill_remote(self, addr: int) -> None:
        self.inc.install(addr)
        if self.victim is not None:
            # The victim cache doubles as the staging area for imports
            # (Section 4.1).
            self.victim.insert(addr)

    def invalidate(self, addr: int) -> None:
        self.inc.invalidate(addr)
        if self.victim is not None:
            self.victim.invalidate(addr)

    def holds_remote(self, addr: int) -> bool:
        return self.inc.contains(addr)


class SCOMANode(IntegratedNode):
    """The integrated device in Simple-COMA mode (Section 4.2, [21]).

    Instead of a fixed Inter-Node Cache, imported data is *allocated* in
    local memory at page granularity: the first touch of a remote page
    takes a software page fault, each block is fetched on first use, and
    thereafter the page behaves exactly like local memory — served by the
    column buffers at local latencies.  The whole local DRAM becomes an
    attraction memory, trading allocation cost for capacity.
    """

    def __init__(
        self,
        node_id: int,
        params: IntegratedDeviceParams | None = None,
        page_bytes: int = 4096,
        with_victim: bool = True,
        on_remote_eviction: Callable[[int, int], None] | None = None,
    ) -> None:
        super().__init__(
            node_id,
            params=params,
            with_victim=with_victim,
            on_remote_eviction=on_remote_eviction,
        )
        self.page_bytes = page_bytes
        self._pages: set[int] = set()  # allocated remote pages
        self._valid_blocks: set[int] = set()  # fetched remote blocks
        self.page_faults = 0

    def _page(self, addr: int) -> int:
        return addr // self.page_bytes

    def _block(self, addr: int) -> int:
        return addr - (addr % COHERENCE_UNIT_BYTES)

    def lookup(self, addr: int, is_local: bool) -> HitLevel:
        if is_local:
            return super().lookup(addr, True)
        if self._page(addr) not in self._pages:
            self.page_faults += 1
            return HitLevel.PAGE_FAULT
        if self._block(addr) not in self._valid_blocks:
            return HitLevel.REMOTE
        # Allocated and valid: behaves exactly like local memory.
        return super().lookup(addr, True)

    def fill_remote(self, addr: int) -> None:
        self._pages.add(self._page(addr))
        self._valid_blocks.add(self._block(addr))

    def invalidate(self, addr: int) -> None:
        self._valid_blocks.discard(self._block(addr))
        # The column buffers may cache the stale block inside a 512 B
        # line; validity is re-checked via _valid_blocks on every lookup,
        # so no column flush is needed.
        if self.victim is not None:
            self.victim.invalidate(addr)

    def holds_remote(self, addr: int) -> bool:
        return self._block(addr) in self._valid_blocks


class ReferenceNode:
    """Reference CC-NUMA node: 16 KB direct-mapped FLC + infinite SLC."""

    def __init__(
        self,
        node_id: int,
        flc_geometry: CacheGeometry | None = None,
    ) -> None:
        self.node_id = node_id
        self.flc = SetAssociativeCache(
            flc_geometry or CacheGeometry(16 * KB, COHERENCE_UNIT_BYTES, 1)
        )
        self._slc: set[int] = set()  # infinite: resident block addresses
        self.mru_cache = self.flc

    @staticmethod
    def _block(addr: int) -> int:
        return addr - (addr % COHERENCE_UNIT_BYTES)

    def lookup(self, addr: int, is_local: bool) -> HitLevel:
        """The level that serves ``addr``, looked up as a load."""
        if self.flc.access(addr):
            return HitLevel.CACHE
        if self._block(addr) in self._slc:
            return HitLevel.SLC  # the FLC access above refilled the line
        if is_local:
            self._slc.add(self._block(addr))
            return HitLevel.LOCAL_MEMORY
        return HitLevel.REMOTE

    def fill_remote(self, addr: int) -> None:
        self._slc.add(self._block(addr))

    def invalidate(self, addr: int) -> None:
        self._slc.discard(self._block(addr))
        self.flc.invalidate(addr)

    def holds_remote(self, addr: int) -> bool:
        return self._block(addr) in self._slc
