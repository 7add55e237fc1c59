"""Vectorized exact cache simulation for the configurations the
experiments use.

The figure harnesses run cache configurations over traces of hundreds of
thousands of references; the routines here give *exact* results orders
of magnitude faster than the object-oriented simulators, which remain
the differential-test oracle (see ``tests/caches``).  Each served
configuration has exactly one engine:

===============================  =====================================
configuration                    engine
===============================  =====================================
1- or 2-way LRU, miss flags      :func:`set_assoc_miss_flags`
1- or 2-way LRU, miss rates      :func:`set_assoc_miss_rates`, one
                                 set sort per trace
1- or 2-way column buffer        :func:`column_buffer_fast`, closed form
2-way column buffer + victim     :func:`column_buffer_fast`, run replay
===============================  =====================================

The 1- and 2-way rule (:func:`_lru_compact`) sorts the lines by set,
drops repeats, and a line hits iff it equals the distinct line ``ways``
places back.  :func:`set_assoc_miss_rates` serves several set counts
of one line size from one sort: each larger count re-sorts the
previous order on its new index bits only.  The column buffer first
collapses the trace into runs on the 512 B column index (sequential
traces collapse 5-70x); with a victim buffer, resident runs resolve in
O(1) and only the non-resident run prefixes, where victim hits feed
back into main-cache contents, replay scalar-side.  That replay
streams the runs in chunks of ``_REPLAY_CHUNK``, so its per-run Python
lists stay one chunk long, and keeps the victim buffer as one
insertion-ordered dict.  Any other configuration raises ``ValueError``;
simulate it with :class:`~repro.caches.set_assoc.SetAssociativeCache`
or :class:`~repro.caches.column_buffer.ColumnBufferCache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.common import tally
from repro.common.params import CacheGeometry, VictimCacheParams
from repro.common.stats import RatioStat
from repro.common.units import is_power_of_two, log2_int
from repro.caches.base import CacheStats, TraceLike


def _radix_key(values: np.ndarray, span: int) -> np.ndarray:
    """``values``, all below ``span``, as the narrowest unsigned key up
    to 16 bits, which numpy's stable sort radix-sorts; wider spans keep
    the int64 values."""
    if span <= 1 << 8:
        return values.astype(np.uint8)
    if span <= 1 << 16:
        return values.astype(np.uint16)
    return values


def _lru_compact(
    lines: np.ndarray, num_sets: int, ways: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact 1- or 2-way LRU over a time-ordered array of line indices.

    Returns ``(order, keep, compact, hit)``:

    - ``order`` stable-sorts the lines by set, so each set's lines stay
      in time order (a narrow key lets numpy radix-sort it);
    - ``keep`` indexes, within that sorted order, every line that is not
      a repeat of the line before it in its set — a repeat is always an
      MRU hit — and ``compact`` holds those lines;
    - ``hit[k]`` is True iff ``compact[k] == compact[k - ways]``.

    After the repeats are dropped, consecutive lines of a set differ,
    so a set holds exactly its last ``ways`` distinct lines and
    ``compact[k - 1]`` is its MRU line: for ``ways <= 2`` a line hits
    iff it is ``compact[k - ways]``.  Equal lines always share a set,
    so no comparison needs a set-boundary check.
    """
    key = _radix_key(lines & (num_sets - 1), num_sets)
    order = np.argsort(key, kind="stable")
    del key
    sorted_lines = lines[order]
    fresh = np.empty(sorted_lines.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=fresh[1:])
    keep = np.flatnonzero(fresh)
    compact = sorted_lines[keep]
    hit = np.zeros(compact.size, dtype=bool)
    np.equal(compact[ways:], compact[:-ways], out=hit[ways:])
    return order, keep, compact, hit


def _describe(geometry: CacheGeometry) -> str:
    ways = ("fully associative" if geometry.associativity == 0
            else f"{geometry.ways}-way")
    return (f"{ways} {geometry.size_bytes} B cache with "
            f"{geometry.line_bytes} B lines")


def set_assoc_miss_flags(addrs: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    """Exact per-reference miss flags of a 1- or 2-way LRU cache.

    A reference hits iff its line is one of the last ``ways`` distinct
    lines of its set (see :func:`_lru_compact`); for a direct-mapped
    cache that is the line of the previous access to the set.
    """
    if geometry.ways > 2:
        raise ValueError(
            f"set_assoc_miss_flags serves 1- and 2-way caches, not a "
            f"{_describe(geometry)}; simulate it with SetAssociativeCache"
        )
    addrs = np.asarray(addrs, dtype=np.int64)
    misses = np.zeros(addrs.size, dtype=bool)
    if addrs.size:
        order, keep, _, hit = _lru_compact(
            addrs >> log2_int(geometry.line_bytes), geometry.num_sets,
            geometry.ways,
        )
        misses[order[keep[~hit]]] = True
    return misses


def set_assoc_miss_rates(
    addrs: np.ndarray, geometries: Sequence[CacheGeometry]
) -> list[float]:
    """Exact overall miss rates of 1- and 2-way LRU caches of one line
    size over one trace, in the order of ``geometries``.

    One stable sort by the smallest set count orders the lines by set,
    each set's lines in time order.  Each larger set count then
    stable-sorts that order on only its new index bits, which yields
    its own by-set order.  In a by-set order a line change is a
    direct-mapped miss, and with the repeats dropped a ``ways``-way
    line hits iff it equals the line ``ways`` places back
    (:func:`_lru_compact`'s rule).  Credits ``cache_refs`` once per
    geometry.
    """
    for geometry in geometries:
        if geometry.ways > 2:
            raise ValueError(
                f"set_assoc_miss_rates serves 1- and 2-way caches, not a "
                f"{_describe(geometry)}; simulate it with SetAssociativeCache"
            )
        if geometry.line_bytes != geometries[0].line_bytes:
            raise ValueError(
                f"set_assoc_miss_rates needs one line size, not a "
                f"{_describe(geometry)} after a "
                f"{_describe(geometries[0])}"
            )
    addrs = np.asarray(addrs, dtype=np.int64)
    n = addrs.size
    misses: dict[tuple[int, int], int] = {}
    with obs.span("cache/fast/set-assoc"):
        tally.add("cache_refs", n * len(geometries))
        if not (n and geometries):
            return [0.0] * len(geometries)
        lines = addrs >> log2_int(geometries[0].line_bytes)
        sorted_sets = 1
        for num_sets in sorted({g.num_sets for g in geometries}):
            if num_sets > sorted_sets:
                new_bits = (lines & (num_sets - 1)) >> log2_int(sorted_sets)
                lines = lines[np.argsort(
                    _radix_key(new_bits, num_sets // sorted_sets),
                    kind="stable",
                )]
                del new_bits
                sorted_sets = num_sets
            fresh = np.empty(n, dtype=bool)
            fresh[0] = True
            np.not_equal(lines[1:], lines[:-1], out=fresh[1:])
            compact = lines[fresh]
            for ways in {g.ways for g in geometries if g.num_sets == num_sets}:
                misses[num_sets, ways] = compact.size - int(
                    np.count_nonzero(compact[ways:] == compact[:-ways])
                )
    return [misses[g.num_sets, g.ways] / n for g in geometries]


def direct_mapped_miss_rate(addrs: np.ndarray, geometry: CacheGeometry) -> float:
    """Exact overall miss rate of a direct-mapped cache."""
    if geometry.ways != 1:
        raise ValueError(
            f"direct_mapped_miss_rate needs a 1-way cache, not a "
            f"{_describe(geometry)}"
        )
    return set_assoc_miss_rates(addrs, [geometry])[0]


def set_assoc_miss_rate(addrs: np.ndarray, geometry: CacheGeometry) -> float:
    """Exact overall miss rate of a 1- or 2-way LRU cache."""
    return set_assoc_miss_rates(addrs, [geometry])[0]


# ---------------------------------------------------------------------------
# Column-buffer (+victim) fast path
# ---------------------------------------------------------------------------


@dataclass
class FastCacheResult:
    """Exact per-reference outcome of one column-buffer simulation.

    Mirrors everything the object-oriented
    :class:`~repro.caches.column_buffer.ColumnBufferCache` (+ its
    :class:`~repro.caches.victim.VictimCache`) accumulates, so the
    differential tests can compare the two representations field by
    field.
    """

    miss_flags: np.ndarray  #: True where ``Cache.access`` would return False
    victim_hit_flags: np.ndarray  #: True where the victim buffer served the ref
    stats: CacheStats = field(default_factory=CacheStats)
    main_hits: int = 0
    victim_hits: int = 0
    victim_probes: int = 0
    victim_inserts: int = 0
    victim_writebacks: int = 0

    @property
    def miss_rate(self) -> float:  # repro: unit(fraction)
        return self.stats.miss_rate


def column_buffer_fast(
    addrs: np.ndarray,
    writes: np.ndarray,
    geometry: CacheGeometry,
    victim: VictimCacheParams | None = None,
    sub_block_bytes: int = 32,
) -> FastCacheResult:
    """Exact column-buffer (+victim) simulation via run-length collapse.

    Consecutive references to the same column are one *run*: once the
    column is resident the rest of the run is a batch of main hits
    (write prefix sums give the dirty update and load/store split in
    O(1)).  Without a victim buffer a 1- or 2-way cache resolves all
    runs at once (:func:`_plain_column_runs`).  With a victim buffer a
    2-way cache replays the runs scalar-side
    (:func:`_replay_column_runs`): each reference of a run that opens
    on a non-resident column probes the victim buffer, whose hits
    suppress the column refill and so feed back into main-cache
    contents.  Any other configuration raises ``ValueError``.
    """
    if geometry.ways > 2 or (victim is not None and geometry.ways != 2):
        buffer = (f"a {victim.entries}-entry victim buffer" if victim
                  else "no victim buffer")
        raise ValueError(
            f"column_buffer_fast serves 1- or 2-way caches without a victim "
            f"buffer and 2-way caches with one, not a {_describe(geometry)} "
            f"and {buffer}; simulate it with ColumnBufferCache"
        )
    if not (is_power_of_two(sub_block_bytes)
            and sub_block_bytes <= geometry.line_bytes):
        raise ValueError(
            f"{sub_block_bytes} B sub-blocks must be a power of two no "
            f"larger than the {geometry.line_bytes} B line"
        )
    addrs = np.ascontiguousarray(addrs, dtype=np.int64)
    writes = np.ascontiguousarray(writes, dtype=bool)
    n = addrs.size
    miss = np.zeros(n, dtype=bool)
    vflags = np.zeros(n, dtype=bool)
    result = FastCacheResult(miss_flags=miss, victim_hit_flags=vflags)
    if n == 0:
        return result

    line_idx = addrs >> log2_int(geometry.line_bytes)
    # Run boundaries: first reference of each maximal same-column run.
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(line_idx[1:], line_idx[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    ends = np.append(starts[1:], n)
    run_lines = line_idx[starts]
    del line_idx
    # prefix[i] = number of writes among refs [0, i): per-run write
    # counts and store/load splits become one subtraction; the scalar
    # replay reads it (rarely) at miss positions.
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(writes, out=prefix[1:])
    run_writes = prefix[ends] - prefix[starts]

    if victim is None:
        miss_runs, evictions, writebacks = _plain_column_runs(
            run_lines, run_writes, geometry
        )
        miss_idx = starts[miss_runs]
        vhit_idx = np.zeros(0, dtype=np.int64)
    else:
        miss_at, vhit_at, evictions, writebacks, vinserts, vwritebacks = (
            _replay_column_runs(addrs, writes, prefix, starts, ends, run_lines,
                                run_writes, geometry, victim, sub_block_bytes)
        )
        miss_idx = np.asarray(miss_at, dtype=np.int64)
        vhit_idx = np.asarray(vhit_at, dtype=np.int64)
    miss[miss_idx] = True
    vflags[vhit_idx] = True
    # Aggregate statistics, recovered from the event indices: every
    # reference is exactly one of {main hit, victim hit, miss}, and the
    # load/store split follows from the write flags at the miss sites.
    total_writes = int(prefix[n])
    n_misses = int(miss_idx.size)
    n_vhits = int(vhit_idx.size)
    store_misses = int(np.count_nonzero(writes[miss_idx]))
    load_misses = n_misses - store_misses
    result.stats = CacheStats(
        loads=RatioStat(hits=(n - total_writes) - load_misses,
                        total=n - total_writes),
        stores=RatioStat(hits=total_writes - store_misses,
                         total=total_writes),
        evictions=evictions,
        writebacks=writebacks,
    )
    result.main_hits = n - n_misses - n_vhits
    result.victim_hits = n_vhits
    if victim is not None:
        # Every victim-served reference probed once (hit); every full
        # miss probed once (the failing probe that ended its run).
        result.victim_probes = n_vhits + n_misses
        result.victim_inserts = vinserts
        result.victim_writebacks = vwritebacks
    return result


def _plain_column_runs(
    run_lines: np.ndarray, run_writes: np.ndarray, geometry: CacheGeometry
) -> tuple[np.ndarray, int, int]:
    """Misses, evictions and writebacks of a victimless 1- or 2-way
    column buffer, resolved over its runs without a per-run loop.

    Returns ``(miss_runs, evictions, writebacks)``, where ``miss_runs``
    indexes the runs that miss (each at its first reference).  With
    :func:`_lru_compact` over the run lines, compact element ``k``
    misses iff it differs from element ``k - ways``; the miss evicts
    iff element ``k - ways`` is in the same set, and it then evicts
    that element's residency.  A residency opens at a miss and runs on
    through the hits that chain back to it in steps of ``ways``; it is
    dirty iff any of its runs (repeats included) wrote, and evicting a
    dirty residency counts one writeback.
    """
    ways = geometry.ways
    order, keep, compact, hit = _lru_compact(run_lines, geometry.num_sets, ways)
    miss = ~hit
    sets = compact & (geometry.num_sets - 1)
    full = np.zeros(compact.size, dtype=bool)
    np.equal(sets[ways:], sets[:-ways], out=full[ways:])
    evict_at = np.flatnonzero(miss & full)
    # residency[k]: the compact index of the miss that filled element
    # k's line.  Elements below ``ways`` always miss, so each strided
    # running maximum starts on a miss.
    residency = np.where(miss, np.arange(compact.size), 0)
    for lane in range(ways):
        residency[lane::ways] = np.maximum.accumulate(residency[lane::ways])
    wrote = np.add.reduceat(run_writes[order], keep) > 0
    dirty = np.zeros(compact.size, dtype=bool)
    dirty[residency[wrote]] = True
    writebacks = int(np.count_nonzero(dirty[residency[evict_at - ways]]))
    return order[keep[miss]], int(evict_at.size), writebacks


# Runs per chunk of :func:`_replay_column_runs`: its per-run Python
# lists hold one chunk at a time.
_REPLAY_CHUNK = 4096


def _replay_column_runs(
    addrs: np.ndarray,
    writes: np.ndarray,
    prefix: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    run_lines: np.ndarray,
    run_writes: np.ndarray,
    geometry: CacheGeometry,
    victim: VictimCacheParams,
    sub_block_bytes: int,
) -> tuple[list[int], list[int], int, int, int, int]:
    """Scalar run replay of a 2-way column buffer with a victim buffer.

    Returns ``(miss_at, vhit_at, evictions, writebacks, victim_inserts,
    victim_writebacks)``: the reference indices of the full misses and
    of the victim hits, then the counters.  A run whose column is
    resident resolves in O(1); only runs that open on a non-resident
    column replay reference by reference through the victim buffer.
    The runs stream through in chunks of ``_REPLAY_CHUNK``, so the
    per-run Python lists never outgrow one chunk.  The victim buffer is
    one insertion-ordered dict, ``key -> dirty``, LRU first: a hit pops
    and re-inserts its key unless it is already the MRU, and an insert
    into a full buffer evicts the first key.
    """
    nsets = geometry.num_sets
    sub_shift = log2_int(sub_block_bytes)
    v_shift = log2_int(victim.line_bytes)
    v_entries = victim.entries
    # Reference-level reads, at the non-resident positions only, go
    # through memoryviews: indexing one yields a plain int or bool, not
    # a numpy scalar.
    vkeys = memoryview(addrs >> v_shift)
    wrote = memoryview(writes)
    wsum = memoryview(prefix)

    evictions = writebacks = 0
    vinserts = vwritebacks = 0
    vic: dict[int, bool] = {}  # victim block key -> dirty, MRU last
    vmru = None  # the last key of ``vic``
    miss_at: list[int] = []
    vhit_at: list[int] = []

    # The loop tracks only cache *state* and the rare-event index
    # lists; every aggregate statistic (hit splits, probe counts) is
    # recovered vectorized afterwards from ``miss_at`` / ``vhit_at``.
    # Each set is two flat slots (MRU and LRU) held in per-field lists:
    # no nested list objects, no positional scans, just indexed
    # loads and stores.
    m_line = [-1] * nsets  # MRU slot per set (-1 = empty)
    m_sub = [0] * nsets
    m_dirty = [False] * nsets
    l_line = [-1] * nsets  # LRU slot per set
    l_sub = [0] * nsets
    l_dirty = [False] * nsets
    for lo in range(0, starts.size, _REPLAY_CHUNK):
        hi = lo + _REPLAY_CHUNK
        # One chunk's per-run attributes as plain lists: zip over lists
        # beats per-index numpy access severalfold, and a chunk bounds
        # the Python ints alive at once.
        chunk_ends = ends[lo:hi]
        for s, e, si, li, sub, nw in zip(
            starts[lo:hi].tolist(),
            chunk_ends.tolist(),
            (run_lines[lo:hi] & (nsets - 1)).tolist(),
            run_lines[lo:hi].tolist(),
            ((addrs[chunk_ends - 1] >> sub_shift) << sub_shift).tolist(),
            run_writes[lo:hi].tolist(),
        ):
            if m_line[si] == li:
                m_sub[si] = sub
                if nw:
                    m_dirty[si] = True
                continue
            if l_line[si] == li:
                # Promote: the LRU slot's line becomes MRU, the old
                # MRU line slides down with its sub-block and dirt.
                hit_dirty = l_dirty[si] or nw > 0
                l_line[si], m_line[si] = m_line[si], li
                l_sub[si], m_sub[si] = m_sub[si], sub
                l_dirty[si], m_dirty[si] = m_dirty[si], hit_dirty
                continue
            # Column not resident: replay the run's prefix through the
            # victim buffer until a reference misses it outright.
            j = s
            while j < e:
                key = vkeys[j]
                if key not in vic:
                    break
                if key != vmru:
                    vic[key] = vic.pop(key) or wrote[j]
                    vmru = key
                elif wrote[j]:
                    vic[key] = True
                vhit_at.append(j)
                j += 1
            if j == e:
                continue  # whole run served victim-side, no refill
            # Full miss at j: evict the set's LRU column (if the set
            # is full), slide MRU down, fill the MRU slot.
            miss_at.append(j)
            if l_line[si] >= 0:
                evictions += 1
                if l_dirty[si]:
                    writebacks += 1
                # Capture the evicted column's last sub-block: a
                # resident copy is superseded (a dirty one is written
                # back), else a full buffer drops its LRU block.
                vinserts += 1
                key = l_sub[si] >> v_shift
                if key in vic:
                    if vic.pop(key):
                        vwritebacks += 1
                elif len(vic) >= v_entries:
                    if vic.pop(next(iter(vic))):
                        vwritebacks += 1
                vic[key] = False
                vmru = key
                l_line[si] = m_line[si]
                l_sub[si] = m_sub[si]
                l_dirty[si] = m_dirty[si]
            elif m_line[si] >= 0:
                l_line[si] = m_line[si]
                l_sub[si] = m_sub[si]
                l_dirty[si] = m_dirty[si]
            m_line[si] = li
            m_sub[si] = sub
            m_dirty[si] = wsum[e] - wsum[j] > 0
    return miss_at, vhit_at, evictions, writebacks, vinserts, vwritebacks


def simulate_column_buffer(
    trace: TraceLike,
    geometry: CacheGeometry,
    victim: VictimCacheParams | None = None,
    sub_block_bytes: int = 32,
) -> FastCacheResult:
    """Run a whole trace through :func:`column_buffer_fast`, under the
    span ``cache/fast/column-buffer`` and the ``cache_refs`` tally."""
    with obs.span("cache/fast/column-buffer"):
        result = column_buffer_fast(
            trace.addresses, trace.is_write, geometry, victim, sub_block_bytes
        )
        tally.add("cache_refs", int(result.miss_flags.size))
    return result


def ratio_from_flags(miss_flags: np.ndarray) -> RatioStat:
    """A hit :class:`RatioStat` from a boolean miss-flag array."""
    total = int(miss_flags.size)
    return RatioStat(hits=total - int(np.count_nonzero(miss_flags)), total=total)
