"""Differential test: the MP engine against its object-oriented oracle.

``MPEngine._run`` serves local MRU hits in its op loop and dispatches
ops by opcode; ``tests/mp/reference_mp.py`` keeps the engine,
system and node logic it replaced.  Both must give
identical results: the ``MPResult``, global and per-node
``AccessStats``, directory and fabric statistics, and every node's cache
counters and contents.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caches.fast import column_buffer_fast
from repro.common.params import MPLatencies
from repro.mp.engine import MPEngine
from repro.mp.layout import NODE_REGION_BYTES
from repro.mp.node import HitLevel
from repro.mp.ops import BARRIER, COMPUTE, LOCK, READ, UNLOCK, WRITE
from repro.mp.system import MPSystem, SystemKind
from repro.workloads.splash import KERNELS
from tests.mp.reference_mp import (
    ReferenceMPEngine,
    ReferenceMPSystem,
    observables,
)

# perfbench's ``tiny`` splash sizes.
TINY = {
    "lu": {"n": 8},
    "mp3d": {"particles": 64, "steps": 2},
    "ocean": {"n": 12, "iterations": 2},
    "water": {"molecules": 8, "steps": 1},
    "pthor": {"gates": 64, "steps": 4},
}
PROCS = (1, 2, 4, 8, 16)


def run_both(make_factory, procs, kind, **system_kwargs):
    """Run one kernel on the shipped engine and on the oracle.

    ``make_factory(layout)`` returns a fresh kernel factory each call.
    """
    system = MPSystem(procs, kind, **system_kwargs)
    result = MPEngine(system).run(make_factory(system.layout))
    oracle = ReferenceMPSystem(procs, kind, **system_kwargs)
    expected = ReferenceMPEngine(oracle).run(make_factory(oracle.layout))
    return observables(expected, oracle), observables(result, system), system


@pytest.mark.parametrize("procs", PROCS)
@pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(TINY))
def test_splash_kernels_match_oracle(name, kind, procs):
    def make_factory(layout):
        return KERNELS[name](**TINY[name], seed=0).build(procs, layout)

    expected, got, system = run_both(make_factory, procs, kind)
    assert got == expected
    assert system.fast_hits > 0


# -- random op streams ---------------------------------------------------------

# Offsets inside a node region: neighbours in one 32 B block and one
# column, column-buffer set conflicts (8 KB apart) and INC set conflicts
# (128 KB apart, more than its 7 ways).
OFFSETS = (0, 8, 32, 96, 512, 8192, 8192 + 32, 16384) + tuple(
    k << 17 for k in range(1, 10)
)
LATENCIES = MPLatencies(cache_hit=2, victim_hit=3, local_memory=7,
                        inc_tag_check=2, invalidation_round_trip=83,
                        remote_load=79, flc_hit=4, slc_hit=11,
                        scoma_page_fault=301)


@st.composite
def programs(draw):
    """Per-processor op lists: phases of references, locked sections and
    compute, each phase ending in a barrier every processor reaches."""
    nodes = draw(st.integers(1, 4))
    phases = draw(st.integers(1, 3))
    access = st.tuples(st.sampled_from("rw"), st.integers(0, nodes - 1),
                       st.sampled_from(OFFSETS))
    item = st.one_of(
        access,
        access,
        st.tuples(st.just("lock"), st.integers(0, 2),
                  st.lists(access, max_size=3)),
        st.tuples(st.just("compute"), st.integers(0, 20)),
    )
    plans = [[draw(st.lists(item, max_size=14)) for _ in range(phases)]
             for _ in range(nodes)]
    return nodes, plans


def _access(item):
    mode, home, offset = item
    addr = home * NODE_REGION_BYTES + offset
    return (WRITE if mode == "w" else READ), addr


def _ops(phases):
    for phase, items in enumerate(phases):
        for item in items:
            if item[0] == "lock":
                yield LOCK, item[1]
                yield from map(_access, item[2])
                yield UNLOCK, item[1]
            elif item[0] == "compute":
                yield COMPUTE, item[1]
            else:
                yield _access(item)
        yield BARRIER, phase


def _factory(plans):
    def make_factory(layout):
        return lambda proc, nprocs: _ops(plans[proc])
    return make_factory


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs(), kind=st.sampled_from(list(SystemKind)),
       inc_bytes=st.sampled_from([256, 2048, 1 << 20]),
       latencies=st.sampled_from([None, LATENCIES]))
def test_random_streams_match_oracle(program, kind, inc_bytes, latencies):
    nodes, plans = program
    expected, got, _ = run_both(_factory(plans), nodes, kind,
                                inc_bytes=inc_bytes, latencies=latencies)
    assert got == expected


def test_scripted_stream_covers_the_slow_path():
    """Each coherence event the fast path must leave alone, in order:
    a recall, a local upgrade, INC evictions and a victim hit."""
    inc_evictions = [("r", 0, k << 17) for k in range(1, 10)]
    plans = [
        [[], [("r", 0, 0)], [("w", 0, 32)],
         [("r", 0, 0), ("r", 0, 8192), ("r", 0, 16384), ("r", 0, 0)]],
        [[("w", 0, 0)], [("r", 0, 32)], inc_evictions, []],
    ]
    for kind in SystemKind:
        expected, got, system = run_both(_factory(plans), 2, kind,
                                         inc_bytes=256, latencies=LATENCIES)
        assert got == expected
        assert system.stats.recalls and system.stats.upgrades
        if kind is SystemKind.INTEGRATED:
            assert expected["stats"]["by_level"][HitLevel.VICTIM] >= 1
            assert sum(node["inc"][3] for node in expected["nodes"]) >= 2


# -- the p = 1 tie with the vectorized column buffer ---------------------------


@pytest.mark.parametrize("name", sorted(TINY))
def test_one_processor_counts_equal_column_buffer_fast(name):
    """At p = 1 every reference is local and goes to the node's column
    buffers as a load, so ``IntegratedNode``'s cache, victim and
    local-memory counts equal ``column_buffer_fast`` run on the recorded
    stream (every READ and WRITE, plus the lock-word writes, in engine
    order) with the device's D-cache geometry and victim buffer."""
    system = MPSystem(1, SystemKind.INTEGRATED)
    engine = MPEngine(system)
    factory = KERNELS[name](**TINY[name], seed=0).build(1, system.layout)
    stream = []

    def recording(proc, num_procs):
        for op in factory(proc, num_procs):
            code, arg = op
            if code in (READ, WRITE):
                stream.append(arg)
            elif code in (LOCK, UNLOCK):
                stream.append(engine._lock_addr(arg))
            yield op

    engine.run(recording)
    addrs = np.asarray(stream, dtype=np.int64)
    params = system.nodes[0].params
    fast = column_buffer_fast(addrs, np.zeros(addrs.size, dtype=bool),
                              params.dcache_geometry, params.victim)
    by_level = system.node_stats[0].by_level
    assert by_level == {
        level: count for level, count in (
            (HitLevel.CACHE, fast.main_hits),
            (HitLevel.VICTIM, fast.victim_hits),
            (HitLevel.LOCAL_MEMORY, int(fast.miss_flags.sum())),
        ) if count
    }
    assert system.nodes[0].columns.stats == fast.stats
