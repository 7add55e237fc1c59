"""The block-by-block miss-rate measurement, kept as the fast one's oracle.

:func:`reference_integrated` and :func:`reference_conventional` are the
object-oriented paths :mod:`repro.uniproc.measurement` shipped before
both measurements ran only on the vectorized engines: the interleaved
instruction and data blocks that :func:`interleaved_blocks` cuts, a
frozen copy of the measurement's original per-block split, replay one
by one through
:func:`~repro.caches.column_buffer.proposed_icache` /
:func:`~repro.caches.column_buffer.proposed_dcache`, or through the two
:func:`~tests.uniproc.reference_hierarchy.conventional_hierarchies` that share one
L2, so the shared L2 sees both miss streams in true issue order.  The
tests and ``scripts/check_fast_paths.py`` require the shipped functions
to return identical :class:`~repro.uniproc.measurement.MissRates`.
"""

from __future__ import annotations

from repro.caches.column_buffer import proposed_dcache, proposed_icache
from repro.common.errors import ConfigError
from repro.common.params import ConventionalSystemParams, IntegratedDeviceParams
from repro.gspn.models import MemoryPathProbs
from repro.uniproc.measurement import MissRates
from repro.workloads.spec.model import SpecProxy
from tests.uniproc.reference_hierarchy import conventional_hierarchies

INTERLEAVE_BLOCK = 64


def interleaved_blocks(proxy: SpecProxy, trace_len: int, seed: int) -> list:
    """Pairs of (instruction block, data block) in mix proportion.

    Each pair holds the next 64 instructions and the next ``d_block``
    data references; the data position restarts at the trace's start
    whenever it reaches the end.
    """
    if trace_len < 1:
        raise ConfigError(f"trace_len must be at least 1, got {trace_len}")
    mix = proxy.mix
    data_per_instr = mix.p_load + mix.p_store
    itrace = proxy.instruction_trace(trace_len, seed)
    dtrace = proxy.data_trace(max(1, int(trace_len * data_per_instr)), seed)
    d_block = max(1, int(INTERLEAVE_BLOCK * data_per_instr))
    blocks = []
    i_pos = d_pos = 0
    while i_pos < len(itrace):
        blocks.append((
            itrace[i_pos : i_pos + INTERLEAVE_BLOCK],
            dtrace[d_pos : d_pos + d_block],
        ))
        i_pos += INTERLEAVE_BLOCK
        d_pos += d_block
        if d_pos >= len(dtrace):
            d_pos = 0
    return blocks


def reference_integrated(
    proxy: SpecProxy,
    trace_len: int = 150_000,
    seed: int = 0,
    with_victim: bool = True,
    params: IntegratedDeviceParams | None = None,
) -> MissRates:
    """Miss rates on the proposed device's column-buffer caches."""
    params = params or IntegratedDeviceParams()
    icache = proposed_icache(params)
    dcache = proposed_dcache(params, with_victim=with_victim)
    for i_block, d_block in interleaved_blocks(proxy, trace_len, seed):
        icache.run(i_block)
        dcache.run(d_block)
    istats, dstats = icache.stats, dcache.stats
    return MissRates(
        ifetch=MemoryPathProbs(hit=istats.loads.hit_rate),
        load=MemoryPathProbs(hit=dstats.loads.hit_rate),
        store=MemoryPathProbs(hit=dstats.stores.hit_rate if dstats.stores.total
                              else dstats.loads.hit_rate),
        icache_miss_rate=istats.miss_rate,
        dcache_miss_rate=dstats.miss_rate,
    )


def reference_conventional(
    proxy: SpecProxy,
    trace_len: int = 150_000,
    seed: int = 0,
    params: ConventionalSystemParams | None = None,
) -> MissRates:
    """Miss rates on the conventional split-L1 + shared-L2 reference."""
    ihier, dhier = conventional_hierarchies(params)
    for i_block, d_block in interleaved_blocks(proxy, trace_len, seed):
        ihier.run(i_block)
        dhier.run(d_block)
    istats, dstats = ihier.stats, dhier.stats

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
