"""Data-reference pattern generators.

Each generator returns a :class:`~repro.trace.stream.ReferenceTrace`.
They are the building blocks from which the SPEC'95 workload proxies
compose their data streams: strided array sweeps, blocked loop nests,
pointer chasing and hot/cold working-set mixes.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.trace.stream import ReferenceTrace, expand_runs


def _store_flags(
    count: int, store_fraction: float, rng: np.random.Generator | None
) -> np.ndarray:
    if store_fraction <= 0.0:
        return np.zeros(count, dtype=bool)
    if store_fraction >= 1.0:
        return np.ones(count, dtype=bool)
    if rng is None:
        # Deterministic pattern: every k-th reference is a store.
        period = max(1, round(1.0 / store_fraction))
        flags = np.zeros(count, dtype=bool)
        flags[period - 1 :: period] = True
        return flags
    return rng.random(count) < store_fraction


def strided_sweep(
    base: int,
    elem_bytes: int,
    elem_count: int,
    stride_bytes: int,
    sweeps: int = 1,
    store_fraction: float = 0.0,
    rng: np.random.Generator | None = None,
) -> ReferenceTrace:
    """Repeated walks over an array at a fixed stride.

    With ``stride_bytes == elem_bytes`` this is a unit-stride vector sweep
    (tomcatv/swim-like); large strides model column walks that defeat
    short-line caches and conflict badly with long lines.
    """
    if elem_count <= 0 or sweeps <= 0:
        return ReferenceTrace.empty()
    one = base + np.arange(elem_count, dtype=np.int64) * stride_bytes
    addrs = np.tile(one, sweeps)
    return ReferenceTrace(addrs, _store_flags(addrs.size, store_fraction, rng))


def blocked_sweep(
    base: int,
    rows: int,
    cols: int,
    elem_bytes: int,
    block: int,
    sweeps: int = 1,
    store_fraction: float = 0.0,
    rng: np.random.Generator | None = None,
) -> ReferenceTrace:
    """Blocked traversal of a ``rows x cols`` row-major matrix.

    Visits ``block x block`` tiles, row-major within each tile — the
    access pattern of tiled linear algebra (mgrid/applu-like).  Tiles
    at the right and bottom edges are cut at the matrix's edge.

    The sweep is built one tile-row band (``block`` rows, all tiles) at
    a time: every full band has the same offset pattern, shifted by its
    first row, so only the last band's pattern is built separately.
    """
    if block < 1:
        raise ConfigError(f"blocked_sweep needs block >= 1, got block={block}")
    if rows <= 0 or cols <= 0 or sweeps <= 0:
        return ReferenceTrace.empty()
    row_stride = cols * elem_bytes
    full_cols = cols - cols % block

    def band(r_count: int) -> np.ndarray:
        """A band's offsets from its first element, tile by tile."""
        row_offsets = np.arange(r_count, dtype=np.int64)[:, None] * row_stride
        tiles = (np.arange(full_cols, dtype=np.int64).reshape(-1, 1, block)
                 * elem_bytes + row_offsets)
        edge = np.arange(full_cols, cols, dtype=np.int64) * elem_bytes + row_offsets
        return np.concatenate((tiles.ravel(), edge.ravel()))

    one = np.empty(rows * cols, dtype=np.int64)
    offsets = band(min(block, rows))
    for tile_r in range(0, rows, block):
        r_count = min(block, rows - tile_r)
        if offsets.size != r_count * cols:
            offsets = band(r_count)
        start = tile_r * cols
        np.add(offsets, base + tile_r * row_stride,
               out=one[start : start + offsets.size])
    addrs = np.tile(one, sweeps)
    return ReferenceTrace(addrs, _store_flags(addrs.size, store_fraction, rng))


def pointer_chase(
    rng: np.random.Generator,
    base: int,
    node_count: int,
    node_bytes: int,
    count: int,
    fields_per_visit: int = 2,
    store_fraction: float = 0.0,
) -> ReferenceTrace:
    """Linked-structure traversal (li/perl-like heaps).

    Nodes are visited along a fixed random permutation cycle (the shape of
    a scrambled linked list); each visit touches ``fields_per_visit``
    consecutive words at the node head, giving intra-node spatial locality
    but no inter-node locality.
    """
    if count <= 0 or node_count <= 0:
        return ReferenceTrace.empty()
    order = rng.permutation(node_count).astype(np.int64)
    visits = -(-count // fields_per_visit)
    node_seq = np.tile(order, -(-visits // node_count))[:visits]
    starts = base + node_seq * node_bytes
    lengths = np.full(visits, fields_per_visit, dtype=np.int64)
    addrs = expand_runs(starts, lengths, step=4)[:count]
    return ReferenceTrace(addrs, _store_flags(addrs.size, store_fraction, rng))


def hot_cold_mix(
    rng: np.random.Generator,
    hot_base: int,
    hot_bytes: int,
    cold_base: int,
    cold_bytes: int,
    count: int,
    hot_fraction: float = 0.9,
    run_length: int = 8,
    granule_bytes: int = 4,
    store_fraction: float = 0.0,
) -> ReferenceTrace:
    """Alternating runs over a small hot set and a large cold set.

    Models compiler/interpreter workloads: most references hit a compact
    hot region (stack, symbol tables) with excursions into a large cold
    heap.  Runs of ``run_length`` consecutive words give each excursion
    realistic spatial locality.
    """
    if count <= 0:
        return ReferenceTrace.empty()
    runs = -(-count // run_length)
    is_hot = rng.random(runs) < hot_fraction
    hot_granules = max(1, hot_bytes // granule_bytes - run_length)
    cold_granules = max(1, cold_bytes // granule_bytes - run_length)
    starts = np.where(
        is_hot,
        hot_base + rng.integers(0, hot_granules, size=runs) * granule_bytes,
        cold_base + rng.integers(0, cold_granules, size=runs) * granule_bytes,
    ).astype(np.int64)
    lengths = np.full(runs, run_length, dtype=np.int64)
    addrs = expand_runs(starts, lengths, step=granule_bytes)[:count]
    return ReferenceTrace(addrs, _store_flags(addrs.size, store_fraction, rng))


def stencil_sweep(
    base: int,
    elem_count: int,
    elem_bytes: int,
    neighbor_offsets: tuple[int, ...] = (-1, 0, 1),
    sweeps: int = 1,
    store_fraction: float = 0.0,
    rng: np.random.Generator | None = None,
) -> ReferenceTrace:
    """Unit-stride sweep touching each element's stencil neighbours.

    For every i the trace visits ``a[i + k]`` for each ``k`` in
    ``neighbor_offsets`` — the access pattern of finite-difference codes
    (mgrid, hydro2d).  Each memory line is touched ``len(offsets)`` times
    per sweep, giving the reuse that separates streaming codes from pure
    copy loops.  Offsets may include plane strides (e.g. +/-N for 2-D).
    """
    if elem_count <= 0 or sweeps <= 0:
        return ReferenceTrace.empty()
    lo = -min(neighbor_offsets)
    hi = max(neighbor_offsets)
    centers = np.arange(lo, elem_count - hi, dtype=np.int64)
    if centers.size == 0:
        return ReferenceTrace.empty()
    taps = np.asarray(neighbor_offsets, dtype=np.int64)
    indices = (centers[:, None] + taps[None, :]).reshape(-1)
    one = base + indices * elem_bytes
    addrs = np.tile(one, sweeps)
    return ReferenceTrace(addrs, _store_flags(addrs.size, store_fraction, rng))


def scattered_blocks(
    rng: np.random.Generator,
    base: int,
    block_count: int,
    spread_bytes: int,
    count: int,
    block_bytes: int = 32,
    words_per_visit: int = 2,
    zipf_exponent: float = 1.2,
    store_fraction: float = 0.0,
) -> ReferenceTrace:
    """Zipf-popular accesses to small blocks scattered over a large region.

    Models the boundary rows, pivots and lookup tables of vector codes:
    a few hundred 32-byte blocks spread across megabytes.  A cache with
    many short lines keeps them all; a 32-line column-buffer cache cannot,
    whatever its capacity — this is the placement-slot shortage that makes
    tomcatv/su2cor/swim punish the proposed design (Section 5.3).
    """
    if count <= 0 or block_count <= 0:
        return ReferenceTrace.empty()
    granules = max(1, spread_bytes // block_bytes)
    blocks = base + rng.choice(granules, size=block_count, replace=False).astype(
        np.int64
    ) * block_bytes
    # Zipf-like popularity over the block population.
    ranks = np.arange(1, block_count + 1, dtype=float)
    probs = ranks**-zipf_exponent
    probs /= probs.sum()
    visits = -(-count // words_per_visit)
    picks = rng.choice(block_count, size=visits, p=probs)
    starts = blocks[picks]
    lengths = np.full(visits, words_per_visit, dtype=np.int64)
    addrs = expand_runs(starts, lengths, step=4)[:count]
    return ReferenceTrace(addrs, _store_flags(addrs.size, store_fraction, rng))


def record_walk(
    rng: np.random.Generator,
    base: int,
    record_count: int,
    record_bytes: int,
    touched_bytes: int,
    count: int,
    sequential_fraction: float = 0.0,
    store_fraction: float = 0.0,
) -> ReferenceTrace:
    """Partial accesses to large records (Water's ~600 B molecules).

    Each visit picks a record (sequentially with the given probability,
    randomly otherwise) and touches the first ``touched_bytes`` of it.
    Large, partially-used records defeat long-line prefetching, which is
    exactly why WATER punishes the column-buffer cache (Section 6.2).
    """
    if count <= 0 or record_count <= 0:
        return ReferenceTrace.empty()
    words_per_visit = max(1, touched_bytes // 4)
    visits = -(-count // words_per_visit)
    seq = np.arange(visits, dtype=np.int64) % record_count
    rand = rng.integers(0, record_count, size=visits, dtype=np.int64)
    use_seq = rng.random(visits) < sequential_fraction
    records = np.where(use_seq, seq, rand)
    starts = base + records * record_bytes
    lengths = np.full(visits, words_per_visit, dtype=np.int64)
    addrs = expand_runs(starts, lengths, step=4)[:count]
    return ReferenceTrace(addrs, _store_flags(addrs.size, store_fraction, rng))
