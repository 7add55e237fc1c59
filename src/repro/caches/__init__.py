"""Trace-driven cache simulators.

Conventional direct-mapped / set-associative caches, the DRAM
column-buffer caches of the proposed device, the victim cache, and the
per-level statistics of the conventional reference system's hierarchy.
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
    set_assoc_miss_rates,
    simulate_column_buffer,
)
from repro.caches.hierarchy import HierarchyStats
from repro.caches.set_assoc import SetAssociativeCache
from repro.caches.victim import VictimCache

__all__ = [
    "Cache",
    "CacheStats",
    "ColumnBufferCache",
    "FastCacheResult",
    "HierarchyStats",
    "SetAssociativeCache",
    "VictimCache",
    "column_buffer_fast",
    "direct_mapped_miss_rate",
    "iter_trace",
    "proposed_dcache",
    "proposed_icache",
    "set_assoc_miss_flags",
    "set_assoc_miss_rate",
    "set_assoc_miss_rates",
    "simulate_column_buffer",
]
