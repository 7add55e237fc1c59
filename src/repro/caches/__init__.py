"""Trace-driven cache simulators.

Conventional direct-mapped / set-associative caches, the DRAM
column-buffer caches of the proposed device, the victim cache, and the
two-level hierarchy of the conventional reference system.
"""

from repro.caches.base import Cache, CacheStats, iter_trace
from repro.caches.column_buffer import (
    ColumnBufferCache,
    proposed_dcache,
    proposed_icache,
)
from repro.caches.fast import (
    FastCacheResult,
    column_buffer_fast,
    direct_mapped_miss_rate,
    set_assoc_miss_flags,
    set_assoc_miss_rate,
    simulate_column_buffer,
)
from repro.caches.hierarchy import (
    HierarchyStats,
    ServiceLevel,
    TwoLevelHierarchy,
    conventional_hierarchies,
)
from repro.caches.set_assoc import (
    DirectMappedCache,
    FullyAssociativeCache,
    SetAssociativeCache,
)
from repro.caches.victim import VictimCache

__all__ = [
    "Cache",
    "CacheStats",
    "ColumnBufferCache",
    "DirectMappedCache",
    "FastCacheResult",
    "FullyAssociativeCache",
    "HierarchyStats",
    "ServiceLevel",
    "SetAssociativeCache",
    "TwoLevelHierarchy",
    "VictimCache",
    "column_buffer_fast",
    "conventional_hierarchies",
    "direct_mapped_miss_rate",
    "iter_trace",
    "proposed_dcache",
    "proposed_icache",
    "set_assoc_miss_flags",
    "set_assoc_miss_rate",
    "simulate_column_buffer",
]
