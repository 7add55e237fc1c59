"""Vectorized exact cache simulation fast paths.

The figure harnesses sweep many cache configurations over traces of
hundreds of thousands of references; the routines here give *exact*
results orders of magnitude faster than the reference simulators, which
remain the differential-test oracle (see ``tests/caches``).

Three layers:

- Per-reference miss flags for conventional LRU caches: one
  closed-form numpy rule for direct-mapped and 2-way
  (:func:`direct_mapped_miss_flags`, :func:`two_way_lru_miss_flags`;
  see :func:`_lru_compact`) — sort by set, drop repeats, and a line
  hits iff it equals the distinct line ``ways`` places back — and a
  per-set chunked scalar replay for higher associativities
  (:func:`set_assoc_miss_flags`).
- The column-buffer cache with its victim coupling
  (:func:`column_buffer_fast`): references are run-length collapsed on
  the 512 B column index (sequential traces collapse 5-70x).  Without a
  victim buffer, a 1- or 2-way cache applies the same closed-form rule
  to the runs, and evictions and writebacks follow vectorized.  With a
  victim buffer (or above 2 ways), resident runs resolve in O(1) per
  run with numpy-precomputed write prefix sums and last-touched
  sub-blocks, and only the rare non-resident prefixes — where victim
  state feeds back into main-cache contents — replay scalar-side,
  probe by probe.
- Two-level hierarchies (:func:`two_level_fast`): L1 miss flags select
  the L2 reference stream, so each level runs one vectorized pass.

:func:`simulate_column_buffer` / :func:`simulate_two_level` are the
dispatch points the figure pipelines and the measurement layer call:
``engine="auto"`` takes the fast path whenever
:func:`column_buffer_fast_supported` says the configuration qualifies
(power-of-two line, sub-block and victim-block sizes — which every
:class:`~repro.common.params.CacheGeometry` satisfies by construction)
and falls back to the object-oriented simulators otherwise;
``engine="exact"`` forces the oracle, which the differential tests and
CI equivalence gate compare against bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.common import tally
from repro.common.address import vector_set_index, vector_tag
from repro.common.params import CacheGeometry, VictimCacheParams
from repro.common.stats import RatioStat
from repro.common.units import is_power_of_two, log2_int
from repro.caches.base import CacheStats, TraceLike


def _lru_compact(
    lines: np.ndarray, num_sets: int, ways: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact 1- or 2-way LRU over a time-ordered array of line indices.

    Returns ``(order, keep, compact, hit)``:

    - ``order`` stable-sorts the lines by set, so each set's lines stay
      in time order (a ``uint16`` key lets numpy radix-sort it);
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
    key = lines & (num_sets - 1)
    if num_sets <= 1 << 16:
        key = key.astype(np.uint16)
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


def _lru_miss_flags(addrs: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    """Per-reference miss flags of a 1- or 2-way LRU cache."""
    addrs = np.asarray(addrs, dtype=np.int64)
    misses = np.zeros(addrs.size, dtype=bool)
    if addrs.size:
        order, keep, _, hit = _lru_compact(
            addrs >> log2_int(geometry.line_bytes), geometry.num_sets,
            geometry.ways,
        )
        misses[order[keep[~hit]]] = True
    return misses


def direct_mapped_miss_flags(addrs: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    """Exact per-reference miss flags for a direct-mapped cache.

    A reference misses iff it is the first access to its set or the
    previous access to the same set was to a different line — which is
    the complete direct-mapped replacement behaviour.
    """
    if geometry.ways != 1:
        raise ValueError("direct_mapped_miss_flags requires a 1-way geometry")
    return _lru_miss_flags(addrs, geometry)


def direct_mapped_miss_rate(addrs: np.ndarray, geometry: CacheGeometry) -> float:
    """Exact overall miss rate for a direct-mapped cache."""
    with obs.span("cache/fast/direct-mapped"):
        flags = direct_mapped_miss_flags(addrs, geometry)
        tally.add("cache_refs", int(flags.size))
    return float(flags.mean()) if flags.size else 0.0


def two_way_lru_miss_flags(addrs: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    """Exact per-reference miss flags for a 2-way LRU cache.

    A reference hits iff its line is the previous distinct line of its
    set or the one before that (see :func:`_lru_compact`).
    """
    if geometry.ways != 2:
        raise ValueError("two_way_lru_miss_flags requires a 2-way geometry")
    return _lru_miss_flags(addrs, geometry)


def set_assoc_miss_rate(addrs: np.ndarray, geometry: CacheGeometry) -> float:
    """Exact miss rate for 1-way or 2-way geometries via the fast paths,
    falling back to the reference simulator for other associativities."""
    if geometry.ways == 1:
        # Delegates; the direct-mapped fast path records its own span
        # and cache_refs tally.
        return direct_mapped_miss_rate(addrs, geometry)
    if geometry.ways == 2:
        with obs.span("cache/fast/two-way-lru"):
            flags = two_way_lru_miss_flags(addrs, geometry)
            tally.add("cache_refs", int(flags.size))
        return float(flags.mean()) if flags.size else 0.0
    with obs.span("cache/fast/set-assoc-fallback"):
        flags = set_assoc_miss_flags(np.asarray(addrs, dtype=np.int64), geometry)
        tally.add("cache_refs", int(flags.size))
    return float(flags.mean()) if flags.size else 0.0


def set_assoc_miss_flags(addrs: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    """Exact per-reference miss flags for any LRU set-associative geometry.

    1-way and 2-way delegate to the specialized fast paths; higher (and
    full) associativities run a per-set chunked replay: references are
    grouped per set with one stable sort, then each group replays
    through a recency-ordered tag list — the same replacement logic as
    :class:`~repro.caches.set_assoc.SetAssociativeCache`, without the
    per-reference dispatch overhead.
    """
    if geometry.ways == 1:
        return direct_mapped_miss_flags(addrs, geometry)
    if geometry.ways == 2:
        return two_way_lru_miss_flags(addrs, geometry)
    addrs = np.asarray(addrs, dtype=np.int64)
    n = addrs.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    ways = geometry.ways
    sets = vector_set_index(addrs, geometry.line_bytes, geometry.num_sets)
    tags = vector_tag(addrs, geometry.line_bytes, geometry.num_sets)
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_tags = tags[order]
    boundaries = np.flatnonzero(np.diff(sorted_sets)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    miss_sorted = np.empty(n, dtype=bool)
    for start, end in zip(starts.tolist(), ends.tolist()):
        group = sorted_tags[start:end].tolist()
        resident: list[int] = []  # MRU last
        for offset, tag in enumerate(group):
            if tag in resident:
                miss_sorted[start + offset] = False
                if resident[-1] != tag:
                    resident.remove(tag)
                    resident.append(tag)
            else:
                miss_sorted[start + offset] = True
                if len(resident) >= ways:
                    resident.pop(0)
                resident.append(tag)
    misses = np.empty(n, dtype=bool)
    misses[order] = miss_sorted
    return misses


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


def column_buffer_fast_supported(
    geometry: CacheGeometry,
    victim: VictimCacheParams | None = None,
    sub_block_bytes: int = 32,
) -> bool:
    """True when the vectorized column-buffer path is exact for this
    configuration.

    The run-collapsed replay relies on power-of-two line, set, sub-block
    and victim-block sizes so bit-shift address decomposition is exact.
    ``CacheGeometry`` and ``VictimCacheParams`` already enforce their
    parts; the checks here keep the dispatch self-contained (and reject
    e.g. a sub-block larger than the line, where the OO model is the
    only defined semantics).
    """
    return (
        is_power_of_two(geometry.line_bytes)
        and is_power_of_two(geometry.num_sets)
        and is_power_of_two(sub_block_bytes)
        and sub_block_bytes <= geometry.line_bytes
        and (victim is None or is_power_of_two(victim.line_bytes))
    )


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
    runs at once (:func:`_plain_column_runs`).  With a victim buffer,
    or above 2 ways, the runs replay scalar-side
    (:func:`_replay_column_runs`): each reference of a run that opens
    on a non-resident column probes the victim buffer, whose hits
    suppress the column refill and so feed back into main-cache
    contents.
    """
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

    if victim is None and geometry.ways <= 2:
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


def _replay_column_runs(
    addrs: np.ndarray,
    writes: np.ndarray,
    prefix: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    run_lines: np.ndarray,
    run_writes: np.ndarray,
    geometry: CacheGeometry,
    victim: VictimCacheParams | None,
    sub_block_bytes: int,
) -> tuple[list[int], list[int], int, int, int, int]:
    """Scalar run replay for victim configurations and > 2 ways.

    Returns ``(miss_at, vhit_at, evictions, writebacks, victim_inserts,
    victim_writebacks)``: the reference indices of the full misses and
    of the victim hits, then the counters.  A run whose column is
    resident resolves in O(1); only runs that open on a non-resident
    column replay reference by reference through the victim buffer.
    """
    set_mask = geometry.num_sets - 1
    ways = geometry.ways
    sub_shift = log2_int(sub_block_bytes)

    # Per-run attributes as plain lists: the hot loop below is pure
    # Python, and list iteration via zip beats per-index numpy access
    # severalfold.  Only run-level arrays are materialized — the
    # reference-level arrays (writes, victim probe keys) are touched
    # scalar-side only at the rare non-resident positions.
    starts_l = starts.tolist()
    ends_l = ends.tolist()
    run_line_l = run_lines.tolist()
    run_set_l = (run_lines & set_mask).tolist()
    run_last_sub_l = ((addrs[ends - 1] >> sub_shift) << sub_shift).tolist()
    run_nw_l = run_writes.tolist()

    evictions = writebacks = 0
    vinserts = vwritebacks = 0

    have_victim = victim is not None
    if have_victim:
        v_shift = log2_int(victim.line_bytes)
        v_entries = victim.entries
        vkeys = addrs >> v_shift
        vlist: list[int] = []  # victim block keys, MRU last
        vset: set[int] = set()
        vdirty: set[int] = set()
    miss_at: list[int] = []
    vhit_at: list[int] = []

    # The hot loops track only cache *state* and the rare-event index
    # lists; every aggregate statistic (hit splits, probe counts) is
    # recovered vectorized afterwards from ``miss_at`` / ``vhit_at``.
    #
    # The 2-way geometry, which reaches this replay only with a victim
    # buffer (the proposed D-cache, swept by Figure 8 and dialed by
    # Tables 3/4), gets a dedicated loop over flat per-set slot lists —
    # no nested list objects, no positional scans, just indexed
    # loads/stores — which is measurably faster than the generic
    # MRU-last list replay on low-collapse vector traces.
    if ways == 2:
        nsets = geometry.num_sets
        m_line = [-1] * nsets  # MRU slot per set (-1 = empty)
        m_sub = [0] * nsets
        m_dirty = [False] * nsets
        l_line = [-1] * nsets  # LRU slot per set
        l_sub = [0] * nsets
        l_dirty = [False] * nsets
        for s, e, si, li, sub, nw in zip(
            starts_l, ends_l, run_set_l, run_line_l, run_last_sub_l, run_nw_l
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
                key = int(vkeys[j])
                if key in vset:
                    if vlist[-1] != key:
                        vlist.remove(key)
                        vlist.append(key)
                    if writes[j]:
                        vdirty.add(key)
                    vhit_at.append(j)
                    j += 1
                else:
                    break
            if j == e:
                continue  # whole run served victim-side, no refill
            # Full miss at j: evict the set's LRU column (if the set
            # is full), slide MRU down, fill the MRU slot.
            miss_at.append(j)
            if l_line[si] >= 0:
                evictions += 1
                if l_dirty[si]:
                    writebacks += 1
                vinserts += 1
                key = l_sub[si] >> v_shift
                if key in vset:
                    vlist.remove(key)
                    if key in vdirty:
                        vdirty.discard(key)
                        vwritebacks += 1
                elif len(vlist) >= v_entries:
                    old = vlist.pop(0)
                    vset.discard(old)
                    if old in vdirty:
                        vdirty.discard(old)
                        vwritebacks += 1
                vlist.append(key)
                vset.add(key)
                l_line[si] = m_line[si]
                l_sub[si] = m_sub[si]
                l_dirty[si] = m_dirty[si]
            elif m_line[si] >= 0:
                l_line[si] = m_line[si]
                l_sub[si] = m_sub[si]
                l_dirty[si] = m_dirty[si]
            m_line[si] = li
            m_sub[si] = sub
            m_dirty[si] = int(prefix[e] - prefix[j]) > 0
    else:
        sets_state: list[list[list]] = [[] for _ in range(geometry.num_sets)]
        for s, e, si, li, sub, nw in zip(
            starts_l, ends_l, run_set_l, run_line_l, run_last_sub_l, run_nw_l
        ):
            lines = sets_state[si]
            if lines:
                entry = lines[-1]
                if entry[0] == li:
                    # MRU hit: the overwhelmingly common case, handled
                    # without the positional scan or counter updates.
                    entry[1] = sub
                    if nw:
                        entry[2] = True
                    continue
                found = -1
                for pos in range(len(lines) - 2, -1, -1):
                    if lines[pos][0] == li:
                        found = pos
                        break
                if found >= 0:
                    entry = lines[found]
                    entry[1] = sub
                    if nw:
                        entry[2] = True
                    del lines[found]
                    lines.append(entry)
                    continue
            # Column not resident: replay the run's prefix through the
            # victim buffer until a reference misses it outright.
            j = s
            if have_victim:
                while j < e:
                    key = int(vkeys[j])
                    if key in vset:
                        if vlist[-1] != key:
                            vlist.remove(key)
                            vlist.append(key)
                        if writes[j]:
                            vdirty.add(key)
                        vhit_at.append(j)
                        j += 1
                    else:
                        break
                if j == e:
                    continue  # whole run served victim-side, no refill
            # Full miss at j: evict the set's LRU column, fill anew.
            miss_at.append(j)
            if len(lines) >= ways:
                ev = lines.pop(0)
                evictions += 1
                if ev[2]:
                    writebacks += 1
                if have_victim:
                    # victim.insert(evicted.last_sub_addr): resident
                    # blocks refresh in place, LRU otherwise; a
                    # superseded or evicted dirty copy counts a victim
                    # writeback; the fresh copy starts clean.
                    vinserts += 1
                    key = ev[1] >> v_shift
                    if key in vset:
                        vlist.remove(key)
                        if key in vdirty:
                            vdirty.discard(key)
                            vwritebacks += 1
                    elif len(vlist) >= v_entries:
                        old = vlist.pop(0)
                        vset.discard(old)
                        if old in vdirty:
                            vdirty.discard(old)
                            vwritebacks += 1
                    vlist.append(key)
                    vset.add(key)
            # Dirty iff the filling reference or any later hit in the
            # run writes (the OO model ORs per reference).
            lines.append([li, sub, int(prefix[e] - prefix[j]) > 0])

    return miss_at, vhit_at, evictions, writebacks, vinserts, vwritebacks


def _column_buffer_exact(
    addrs: np.ndarray,
    writes: np.ndarray,
    geometry: CacheGeometry,
    victim: VictimCacheParams | None,
    sub_block_bytes: int,
) -> FastCacheResult:
    """The object-oriented oracle, packaged as a :class:`FastCacheResult`."""
    from repro.caches.column_buffer import ColumnBufferCache
    from repro.caches.victim import VictimCache

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
        hit = cache.access(addr_l[i], write_l[i])
        miss[i] = not hit
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


def simulate_column_buffer(
    trace: TraceLike,
    geometry: CacheGeometry,
    victim: VictimCacheParams | None = None,
    sub_block_bytes: int = 32,
    engine: str = "auto",
) -> FastCacheResult:
    """Run a whole trace through a column-buffer cache configuration.

    Dispatch: ``"auto"`` takes :func:`column_buffer_fast` when
    :func:`column_buffer_fast_supported` qualifies the configuration
    (span ``cache/fast/column-buffer``), and otherwise — or with
    ``engine="exact"`` — replays through the object-oriented oracle
    (span ``cache/fast/column-buffer-exact``).  Both report the same
    ``cache_refs`` tally; results are identical by construction and by
    the differential test suite.
    """
    if engine not in ("auto", "fast", "exact"):
        raise ValueError(f"unknown engine {engine!r}")
    fast_ok = column_buffer_fast_supported(geometry, victim, sub_block_bytes)
    if engine == "fast" and not fast_ok:
        raise ValueError("configuration does not qualify for the fast path")
    if engine != "exact" and fast_ok:
        with obs.span("cache/fast/column-buffer"):
            result = column_buffer_fast(
                trace.addresses, trace.is_write, geometry, victim,
                sub_block_bytes,
            )
            tally.add("cache_refs", int(result.miss_flags.size))
        return result
    with obs.span("cache/fast/column-buffer-exact"):
        result = _column_buffer_exact(
            trace.addresses, trace.is_write, geometry, victim, sub_block_bytes
        )
        tally.add("cache_refs", int(result.miss_flags.size))
    return result


# ---------------------------------------------------------------------------
# Two-level hierarchy fast path
# ---------------------------------------------------------------------------


@dataclass
class TwoLevelFastResult:
    """Exact per-level outcome of a private two-level hierarchy run."""

    l1_miss_flags: np.ndarray  #: per input reference
    l2_miss_flags: np.ndarray  #: dense over the L1 miss stream, in order


def two_level_fast(
    addrs: np.ndarray,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
) -> TwoLevelFastResult:
    """Exact L1+L2 miss flags: the L1 miss stream *is* the L2 trace.

    Valid for a private (unshared) L2; the conventional split-L1 system
    shares one L2 between both hierarchies, which
    :mod:`repro.uniproc.measurement` handles by merging the two L1 miss
    streams in interleave order before the single L2 pass.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    l1_flags = set_assoc_miss_flags(addrs, l1_geometry)
    l2_flags = set_assoc_miss_flags(addrs[l1_flags], l2_geometry)
    return TwoLevelFastResult(l1_miss_flags=l1_flags, l2_miss_flags=l2_flags)


def simulate_two_level(
    trace: TraceLike,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    engine: str = "auto",
):
    """Run a trace through a private two-level hierarchy.

    Returns the populated
    :class:`~repro.caches.hierarchy.HierarchyStats`.  ``engine="exact"``
    replays through :class:`~repro.caches.hierarchy.TwoLevelHierarchy`
    (which records its own span); the fast path records
    ``cache/fast/two-level``.
    """
    if engine not in ("auto", "fast", "exact"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "exact":
        from repro.caches.hierarchy import TwoLevelHierarchy

        hierarchy = TwoLevelHierarchy(l1_geometry, l2_geometry)
        return hierarchy.run(trace)
    from repro.caches.hierarchy import HierarchyStats

    with obs.span("cache/fast/two-level"):
        addrs = np.asarray(trace.addresses, dtype=np.int64)
        writes = np.asarray(trace.is_write, dtype=bool)
        result = two_level_fast(addrs, l1_geometry, l2_geometry)
        l1_flags = result.l1_miss_flags
        stats = HierarchyStats(
            l1_loads=ratio_from_flags(l1_flags[~writes]),
            l1_stores=ratio_from_flags(l1_flags[writes]),
            l2=ratio_from_flags(result.l2_miss_flags),
        )
        tally.add("cache_refs", int(addrs.size))
    return stats


def ratio_from_flags(miss_flags: np.ndarray) -> RatioStat:
    """A hit :class:`RatioStat` from a boolean miss-flag array."""
    total = int(miss_flags.size)
    return RatioStat(hits=total - int(np.count_nonzero(miss_flags)), total=total)
