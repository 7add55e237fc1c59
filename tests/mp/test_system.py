import pytest

from repro.common import tally
from repro.common.errors import ConfigError
from repro.common.params import MPLatencies
from repro.mp.engine import MPEngine
from repro.mp.layout import NODE_REGION_BYTES
from repro.mp.ops import COMPUTE, READ, WRITE
from repro.mp.system import MPSystem, SystemKind
from repro.workloads.splash import KERNELS
from tests.mp.reference_mp import (
    ReferenceMPEngine,
    ReferenceMPSystem,
    observables,
)

LAT = MPLatencies()
REMOTE_BASE = NODE_REGION_BYTES  # node 1's region


class TestLocalAccesses:
    def test_local_cold_miss_costs_local_memory(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        assert system.access(0, 0x1000, write=False) == LAT.local_memory

    def test_local_rehit_costs_one(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        system.access(0, 0x1000, write=False)
        assert system.access(0, 0x1004, write=False) == LAT.cache_hit

    def test_reference_local_rehit(self):
        system = MPSystem(2, SystemKind.REFERENCE)
        system.access(0, 0x1000, write=False)
        assert system.access(0, 0x1000, write=False) == LAT.flc_hit


class TestRemoteAccesses:
    def test_remote_cold_load_costs_80(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        assert system.access(0, REMOTE_BASE, write=False) == LAT.remote_load

    def test_remote_reload_hits_staging_then_inc(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        system.access(0, REMOTE_BASE, write=False)
        assert system.access(0, REMOTE_BASE, write=False) == LAT.victim_hit
        # Displace the victim staging with other imports.
        for i in range(1, 17):
            system.access(0, REMOTE_BASE + i * 4096, write=False)
        assert system.access(0, REMOTE_BASE, write=False) == LAT.inc_access

    def test_reference_remote_reload_hits_flc(self):
        system = MPSystem(2, SystemKind.REFERENCE)
        system.access(0, REMOTE_BASE, write=False)
        assert system.access(0, REMOTE_BASE, write=False) == LAT.flc_hit


class TestCoherence:
    def test_write_invalidates_remote_reader(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        system.access(1, 0x1000, write=False)  # node 1 imports node 0's block
        assert system.access(1, 0x1000, write=False) == LAT.victim_hit
        # Home writes: round trip to invalidate node 1.
        assert system.access(0, 0x1000, write=True) == LAT.invalidation_round_trip
        # Node 1 must re-fetch.
        assert system.access(1, 0x1000, write=False) == LAT.remote_load

    def test_remote_write_takes_ownership_then_cheap_rewrites(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        assert system.access(1, 0x1000, write=True) == LAT.invalidation_round_trip
        # Owner rewrite hits the staged copy.
        assert system.access(1, 0x1000, write=True) == LAT.victim_hit

    def test_home_read_of_remotely_owned_block_recalls(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        system.access(1, 0x1000, write=True)  # node 1 owns node 0's block
        assert system.access(0, 0x1000, write=False) == LAT.invalidation_round_trip
        assert system.stats.recalls == 1
        # After the recall both can read cheaply.
        assert system.access(0, 0x1000, write=False) == LAT.cache_hit

    def test_read_of_dirty_remote_block_costs_round_trip(self):
        system = MPSystem(4, SystemKind.INTEGRATED)
        system.access(1, 0x1000, write=True)  # node 1 owns node 0's block
        # Node 2 reads it: home forwards / recalls — lumped 80 cycles.
        latency = system.access(2, 0x1000, write=False)
        assert latency == LAT.remote_load
        assert system.directory.stats.recalls == 1

    def test_reference_owner_rewrite_hits_flc(self):
        # Regression: an owner's rewrite served by the reference FLC was
        # charged victim_hit instead of flc_hit (both 1 under Table 6).
        lat = MPLatencies(flc_hit=2, victim_hit=5)
        system = MPSystem(2, SystemKind.REFERENCE, latencies=lat)
        got = [system.access(0, REMOTE_BASE, write=True) for _ in range(4)]
        assert got == [lat.invalidation_round_trip, lat.slc_hit,
                       lat.flc_hit, lat.flc_hit]

    def test_ping_pong_writes(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        for _ in range(3):
            assert system.access(1, 0x1000, write=True) == LAT.invalidation_round_trip
            assert system.access(0, 0x1000, write=True) == LAT.invalidation_round_trip

    def test_fabric_counts_messages(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        system.access(1, 0x1000, write=False)
        assert system.fabric.stats.bytes_sent > 0


class TestStats:
    def test_levels_partition_accesses(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        for i in range(50):
            system.access(0, i * 64, write=False)
            system.access(0, REMOTE_BASE + i * 64, write=i % 3 == 0)
        stats = system.stats
        assert sum(stats.by_level.values()) == stats.total == 100
        assert stats.local == 50
        assert stats.remote == 50

    def test_fast_hits_count_local_mru_hits(self):
        """The engine serves local MRU hits and credits them per run."""

        def kernel(proc, nprocs):
            if proc == 0:
                yield READ, 0x1000  # cold: local memory
                yield WRITE, 0x1008  # MRU column, block unowned: fast
                yield COMPUTE, 20  # node 1 reads meanwhile
                yield READ, 0x1010  # shared read: still fast
                yield WRITE, 0x1018  # shared write: upgrade
            else:
                yield COMPUTE, 10
                yield READ, 0x1000  # node 1 shares the block

        system = MPSystem(2, SystemKind.INTEGRATED)
        result = MPEngine(system).run(kernel)
        before_upgrade = LAT.local_memory + 2 * LAT.cache_hit + 20
        assert result.finish_times[0] == (
            before_upgrade + LAT.invalidation_round_trip)
        assert system.fast_hits == 2
        assert system.stats.upgrades == 1
        assert system.node_stats[0].total == 4

    @pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
    def test_two_runs_on_one_system_match_oracle(self, kind):
        """Per-run credits add up: counters match the oracle after each run."""
        kernels = (KERNELS["lu"](n=8, seed=0),
                   KERNELS["ocean"](n=12, iterations=2, seed=0))
        system = MPSystem(4, kind)
        oracle = ReferenceMPSystem(4, kind)
        tallies = []
        for kernel in kernels:
            before = tally.snapshot()
            got = MPEngine(system).run(kernel.build(4, system.layout))
            tallies.append(tally.since(before).get("mp_fast_hits", 0))
            expected = ReferenceMPEngine(oracle).run(
                kernel.build(4, oracle.layout))
            assert observables(got, system) == observables(expected, oracle)
        assert all(tallies)
        assert sum(tallies) == system.fast_hits

    def test_out_of_range_address_rejected(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        with pytest.raises(ConfigError, match="outside any node region"):
            system.access(0, 2 * NODE_REGION_BYTES, write=False)
        with pytest.raises(ConfigError):
            system.access(0, -1, write=False)

    def test_rejects_zero_nodes(self):
        with pytest.raises(Exception):
            MPSystem(0)
