"""Miss-rate measurement: from workload proxy traces to GSPN inputs.

The paper "dials" hit/miss ratios measured by trace-driven simulation
directly into the Petri-net models (Section 5.5).  This module runs a
proxy's instruction and data traces through the proposed column-buffer
caches or a conventional two-level hierarchy and packages the resulting
service-level fractions as :class:`~repro.gspn.models.MemoryPathProbs`.

Instruction and data references interleave in blocks sized by the
proxy's instruction mix, so a shared second-level cache sees a realistic
mixed stream.

Both measurements run on the vectorized engines of
:mod:`repro.caches.fast`.  The integrated device's I- and D-caches are
private, so each runs its full (wrap-reconstructed) stream through
:func:`~repro.caches.fast.column_buffer_fast` in one shot; the
conventional system computes both L1 miss-flag vectors first, then
merges the two miss streams *in interleave order* into the single
shared-L2 reference stream.  Block-by-block interleaving and whole-
stream simulation are equivalent for the private caches because each
cache simply sees its own references in time order; the shared L2 is
the only point where the interleave matters, and the merge preserves
it exactly.  ``tests/uniproc/reference_measurement.py`` keeps the
block-by-block replay through the object-oriented simulators as the
oracle, and the tests require identical :class:`MissRates`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.common import tally
from repro.caches.fast import (
    column_buffer_fast,
    ratio_from_flags,
    set_assoc_miss_flags,
)
from repro.caches.hierarchy import HierarchyStats
from repro.common.errors import ConfigError
from repro.common.params import ConventionalSystemParams, IntegratedDeviceParams
from repro.gspn.models import MemoryPathProbs
from repro.workloads.spec.model import SpecProxy

_INTERLEAVE_BLOCK = 64


@dataclass(frozen=True)
class MissRates:
    """Service-level fractions ready to dial into the processor GSPN."""

    ifetch: MemoryPathProbs
    load: MemoryPathProbs
    store: MemoryPathProbs
    icache_miss_rate: float
    dcache_miss_rate: float


def _interleaved(proxy: SpecProxy, trace_len: int, seed: int) -> list:
    """Pairs of (instruction block, data block) in mix proportion."""
    if trace_len < 1:
        raise ConfigError(f"trace_len must be at least 1, got {trace_len}")
    mix = proxy.mix
    data_per_instr = mix.p_load + mix.p_store
    itrace = proxy.instruction_trace(trace_len, seed)
    dtrace = proxy.data_trace(max(1, int(trace_len * data_per_instr)), seed)
    d_block = max(1, int(_INTERLEAVE_BLOCK * data_per_instr))
    blocks = []
    i_pos = d_pos = 0
    while i_pos < len(itrace):
        blocks.append((
            itrace[i_pos : i_pos + _INTERLEAVE_BLOCK],
            dtrace[d_pos : d_pos + d_block],
        ))
        i_pos += _INTERLEAVE_BLOCK
        d_pos += d_block
        if d_pos >= len(dtrace):
            d_pos = 0
    return blocks


def _concat_blocks(blocks):
    """The interleaved blocks flattened back into per-cache streams.

    Returns ``(i_addrs, i_writes, d_addrs, d_writes)``.  The instruction
    stream is the original trace; the data stream reproduces the
    wrap-around replay of :func:`_interleaved` exactly (it restarts the
    data trace whenever it runs dry), so a private cache
    consuming the concatenation sees the same references in the same
    order as one consuming the blocks one by one.
    """
    i_addrs = np.concatenate([b.addresses for b, _ in blocks])
    i_writes = np.concatenate([b.is_write for b, _ in blocks])
    d_addrs = np.concatenate([d.addresses for _, d in blocks])
    d_writes = np.concatenate([d.is_write for _, d in blocks])
    return i_addrs, i_writes, d_addrs, d_writes


def measure_integrated(
    proxy: SpecProxy,
    trace_len: int = 150_000,
    seed: int = 0,
    with_victim: bool = True,
    params: IntegratedDeviceParams | None = None,
) -> MissRates:
    """Miss rates on the proposed device's column-buffer caches."""
    params = params or IntegratedDeviceParams()
    victim = params.victim if with_victim else None
    i_addrs, i_writes, d_addrs, d_writes = _concat_blocks(
        _interleaved(proxy, trace_len, seed)
    )
    with obs.span("cache/fast/column-buffer"):
        istats = column_buffer_fast(i_addrs, i_writes, params.icache_geometry).stats
        dstats = column_buffer_fast(
            d_addrs, d_writes, params.dcache_geometry, victim
        ).stats
        tally.add("cache_refs", int(i_addrs.size + d_addrs.size))
    return MissRates(
        ifetch=MemoryPathProbs(hit=istats.loads.hit_rate),
        load=MemoryPathProbs(hit=dstats.loads.hit_rate),
        store=MemoryPathProbs(hit=dstats.stores.hit_rate if dstats.stores.total
                              else dstats.loads.hit_rate),
        icache_miss_rate=istats.miss_rate,
        dcache_miss_rate=dstats.miss_rate,
    )


def _conventional_stats(
    blocks, params: ConventionalSystemParams
) -> tuple[HierarchyStats, HierarchyStats]:
    """Both hierarchies' stats via one vectorized pass per cache.

    The L1s are private, so their miss flags come from whole-stream
    passes; the shared L2 sees the two L1 miss streams merged block by
    block in the exact order the object-oriented hierarchies would
    issue them (instruction block first, then its data block).
    """
    i_addrs, i_writes, d_addrs, d_writes = _concat_blocks(blocks)
    with obs.span("cache/fast/two-level"):
        i_flags = set_assoc_miss_flags(i_addrs, params.l1i)
        d_flags = set_assoc_miss_flags(d_addrs, params.l1d)
        l2_parts: list[np.ndarray] = []
        from_i: list[bool] = []
        i_pos = d_pos = 0
        for i_block, d_block in blocks:
            n_i, n_d = len(i_block), len(d_block)
            l2_parts.append(
                i_addrs[i_pos : i_pos + n_i][i_flags[i_pos : i_pos + n_i]]
            )
            from_i.append(True)
            l2_parts.append(
                d_addrs[d_pos : d_pos + n_d][d_flags[d_pos : d_pos + n_d]]
            )
            from_i.append(False)
            i_pos += n_i
            d_pos += n_d
        l2_addrs = np.concatenate(l2_parts)
        l2_src_i = np.concatenate(
            [np.full(part.size, src, dtype=bool)
             for part, src in zip(l2_parts, from_i)]
        )
        l2_flags = set_assoc_miss_flags(l2_addrs, params.l2)
        istats = HierarchyStats(
            l1_loads=ratio_from_flags(i_flags[~i_writes]),
            l1_stores=ratio_from_flags(i_flags[i_writes]),
            l2=ratio_from_flags(l2_flags[l2_src_i]),
        )
        dstats = HierarchyStats(
            l1_loads=ratio_from_flags(d_flags[~d_writes]),
            l1_stores=ratio_from_flags(d_flags[d_writes]),
            l2=ratio_from_flags(l2_flags[~l2_src_i]),
        )
        tally.add("cache_refs", int(i_addrs.size + d_addrs.size))
    return istats, dstats


def measure_conventional(
    proxy: SpecProxy,
    trace_len: int = 150_000,
    seed: int = 0,
    params: ConventionalSystemParams | None = None,
) -> MissRates:
    """Miss rates on the conventional split-L1 + shared-L2 reference."""
    params = params or ConventionalSystemParams()
    istats, dstats = _conventional_stats(
        _interleaved(proxy, trace_len, seed), params
    )

    def probs(l1_hit: float, l2_among_misses: float) -> MemoryPathProbs:
        l2 = (1.0 - l1_hit) * l2_among_misses
        return MemoryPathProbs(hit=l1_hit, l2=min(l2, 1.0 - l1_hit))

    i_l2 = istats.l2_local_hit_rate
    d_l2 = dstats.l2_local_hit_rate
    load_hit = dstats.l1_loads.hit_rate if dstats.l1_loads.total else 1.0
    # With no stores in the data stream, stores take the load hit rate,
    # as in measure_integrated.
    store_hit = (dstats.l1_stores.hit_rate if dstats.l1_stores.total
                 else load_hit)
    return MissRates(
        ifetch=probs(istats.l1_hit_rate, i_l2),
        load=probs(load_hit, d_l2),
        store=probs(store_hit, d_l2),
        icache_miss_rate=istats.l1_miss_rate,
        dcache_miss_rate=dstats.l1_miss_rate,
    )
