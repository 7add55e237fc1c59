"""The object-oriented column buffer, packaged as the fast engine's oracle.

:func:`column_buffer_exact` runs a trace reference by reference through
:class:`~repro.caches.column_buffer.ColumnBufferCache` (and its
:class:`~repro.caches.victim.VictimCache`) and returns every counter in
the :class:`~repro.caches.fast.FastCacheResult` shape, so the
differential tests and ``scripts/check_fast_paths.py`` can compare
:func:`~repro.caches.fast.column_buffer_fast` with it field by field.
Unlike the fast engine it serves every geometry.
"""

from __future__ import annotations

import numpy as np

from repro.caches.column_buffer import ColumnBufferCache
from repro.caches.fast import FastCacheResult
from repro.caches.victim import VictimCache
from repro.common.params import CacheGeometry, VictimCacheParams


def column_buffer_exact(
    addrs: np.ndarray,
    writes: np.ndarray,
    geometry: CacheGeometry,
    victim: VictimCacheParams | None = None,
    sub_block_bytes: int = 32,
) -> FastCacheResult:
    """Replay ``addrs``/``writes`` through the object-oriented model."""
    vcache = VictimCache(victim) if victim is not None else None
    cache = ColumnBufferCache(
        geometry, victim=vcache, sub_block_bytes=sub_block_bytes
    )
    n = int(np.asarray(addrs).size)
    miss = np.zeros(n, dtype=bool)
    vflags = np.zeros(n, dtype=bool)
    addr_l = np.asarray(addrs, dtype=np.int64).tolist()
    write_l = np.asarray(writes, dtype=bool).tolist()
    for i in range(n):
        miss[i] = not cache.access(addr_l[i], write_l[i])
        vflags[i] = cache.last_hit_was_victim
    return FastCacheResult(
        miss_flags=miss,
        victim_hit_flags=vflags,
        stats=cache.stats,
        main_hits=cache.main_hits,
        victim_hits=cache.victim_hits,
        victim_probes=vcache.probes if vcache is not None else 0,
        victim_inserts=vcache.inserts if vcache is not None else 0,
        victim_writebacks=vcache.writebacks if vcache is not None else 0,
    )
