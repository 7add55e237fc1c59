"""Miss-rate measurement: from workload proxy traces to GSPN inputs.

The paper "dials" hit/miss ratios measured by trace-driven simulation
directly into the Petri-net models (Section 5.5).  This module runs a
proxy's instruction and data traces through the proposed column-buffer
caches or a conventional two-level hierarchy and packages the resulting
service-level fractions as :class:`~repro.gspn.models.MemoryPathProbs`.

Instruction and data references interleave in blocks sized by the
proxy's instruction mix, so a shared second-level cache sees a realistic
mixed stream: block ``b`` is 64 instructions followed by the next data
block, the data trace restarting from its start whenever it runs dry.

Both measurements run on the vectorized engines of
:mod:`repro.caches.fast`, and no block is ever cut out as a trace.
Each private cache's stream is built in closed form
(:func:`_streams`): the instruction stream is the trace itself, and the
data stream is the data trace repeated cyclically up to the blocks'
total length.  The integrated device's I- and D-caches run those
streams through :func:`~repro.caches.fast.column_buffer_fast` in one
shot.  The conventional system computes both L1 miss-flag vectors,
then orders the two miss streams for the shared L2 with one stable
sort on ``2 * block + (0 for I, 1 for D)``, the block ids computed for
the misses only.  Whole-stream simulation is exact for the private
caches because each simply sees its own references in time order; the
shared L2 is the only point where the interleave matters, and the sort
preserves it exactly.  ``tests/uniproc/reference_measurement.py`` keeps
a frozen copy of the block-by-block split and replays it through the
object-oriented simulators as the oracle, and the tests require
identical :class:`MissRates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
from repro.trace.stream import ReferenceTrace
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


def _streams(
    proxy: SpecProxy, trace_len: int, seed: int
) -> tuple[ReferenceTrace, np.ndarray, np.ndarray, np.ndarray]:
    """The per-cache streams of the interleaved instruction/data blocks.

    Returns ``(itrace, d_addrs, d_writes, d_ends)``.  Instruction block
    ``b`` is ``itrace[64b : 64b + 64]``, so the instruction stream is
    the trace itself.  Data block ``b`` starts at ``(b mod P) * d_block``,
    ``P`` being the number of ``d_block``-sized pieces of the data trace,
    and is cut at the trace's end: the blocks replay the data trace
    from its start each time it runs dry.  Blocks ``0 .. P - 1`` cover
    the trace once, in order, so the data stream is the trace repeated
    cyclically up to the blocks' total length.  ``d_ends[b]`` is the
    data stream's length after block ``b``.
    """
    if trace_len < 1:
        raise ConfigError(f"trace_len must be at least 1, got {trace_len}")
    mix = proxy.mix
    data_per_instr = mix.p_load + mix.p_store
    itrace = proxy.instruction_trace(trace_len, seed)
    dtrace = proxy.data_trace(max(1, int(trace_len * data_per_instr)), seed)
    d_block = max(1, int(_INTERLEAVE_BLOCK * data_per_instr))
    n_blocks = -(-len(itrace) // _INTERLEAVE_BLOCK)
    pieces = -(-len(dtrace) // d_block)
    starts = np.arange(n_blocks, dtype=np.int64) % pieces * d_block
    d_ends = np.cumsum(np.minimum(d_block, len(dtrace) - starts))
    n_d = int(d_ends[-1])
    return (itrace, np.resize(dtrace.addresses, n_d),
            np.resize(dtrace.is_write, n_d), d_ends)


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
    itrace, d_addrs, d_writes, _ = _streams(proxy, trace_len, seed)
    with obs.span("cache/fast/column-buffer"):
        istats = column_buffer_fast(
            itrace.addresses, itrace.is_write, params.icache_geometry
        ).stats
        dstats = column_buffer_fast(
            d_addrs, d_writes, params.dcache_geometry, victim
        ).stats
        tally.add("cache_refs", len(itrace) + int(d_addrs.size))
    return MissRates(
        ifetch=MemoryPathProbs(hit=istats.loads.hit_rate),
        load=MemoryPathProbs(hit=dstats.loads.hit_rate),
        store=MemoryPathProbs(hit=dstats.stores.hit_rate if dstats.stores.total
                              else dstats.loads.hit_rate),
        icache_miss_rate=istats.miss_rate,
        dcache_miss_rate=dstats.miss_rate,
    )


def _conventional_stats(
    i_addrs: np.ndarray,
    i_writes: np.ndarray,
    i_block_of: Callable[[np.ndarray], np.ndarray],
    d_addrs: np.ndarray,
    d_writes: np.ndarray,
    d_block_of: Callable[[np.ndarray], np.ndarray],
    params: ConventionalSystemParams,
) -> tuple[HierarchyStats, HierarchyStats]:
    """Both hierarchies' stats via one vectorized pass per cache.

    The L1s are private, so their miss flags come from whole-stream
    passes.  The shared L2 sees the two L1 miss streams in the order
    the object-oriented hierarchies would issue them: block by block,
    each instruction block before its data block.  ``i_block_of`` and
    ``d_block_of`` map reference indices of their stream to block ids;
    one stable sort on ``2 * block + (0 for I, 1 for D)`` puts the
    misses in that order, each stream's misses staying in time order.
    """
    with obs.span("cache/fast/two-level"):
        i_flags = set_assoc_miss_flags(i_addrs, params.l1i)
        d_flags = set_assoc_miss_flags(d_addrs, params.l1d)
        i_miss = np.flatnonzero(i_flags)
        d_miss = np.flatnonzero(d_flags)
        key = np.concatenate((2 * i_block_of(i_miss), 2 * d_block_of(d_miss) + 1))
        order = np.argsort(key, kind="stable")
        l2_addrs = np.concatenate((i_addrs[i_miss], d_addrs[d_miss]))[order]
        l2_src_i = order < i_miss.size
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
    itrace, d_addrs, d_writes, d_ends = _streams(proxy, trace_len, seed)
    istats, dstats = _conventional_stats(
        itrace.addresses, itrace.is_write,
        lambda i: i // _INTERLEAVE_BLOCK,
        d_addrs, d_writes,
        lambda i: np.searchsorted(d_ends, i, side="right"),
        params,
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
