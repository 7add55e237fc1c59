"""Per-node access statistics."""

import pytest

from repro.mp.engine import MPEngine
from repro.mp.layout import NODE_REGION_BYTES
from repro.mp.ops import READ
from repro.mp.system import MPSystem, SystemKind
from repro.workloads.splash import LUKernel


def imbalance(system: MPSystem) -> float:
    """Max/mean of the per-node access counts."""
    counts = [stats.total for stats in system.node_stats]
    return max(counts) / (sum(counts) / len(counts))


class TestNodeStats:
    def test_per_node_counts_partition_global(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        system.access(0, 0x100, write=False)
        system.access(1, NODE_REGION_BYTES + 0x100, write=True)
        system.access(0, NODE_REGION_BYTES + 0x200, write=False)
        assert system.node_stats[0].total == 2
        assert system.node_stats[1].total == 1
        assert system.stats.total == 3

    def test_local_remote_split_per_node(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        system.access(0, 0x100, write=False)  # local to node 0
        system.access(0, NODE_REGION_BYTES, write=False)  # remote
        assert system.node_stats[0].local == 1
        assert system.node_stats[0].remote == 1
        assert system.node_stats[1].total == 0

    def test_levels_recorded_per_node(self):
        system = MPSystem(2, SystemKind.INTEGRATED)
        system.access(0, 0x100, write=False)
        system.access(0, 0x104, write=False)
        levels = system.node_stats[0].by_level
        assert sum(levels.values()) == 2

    def test_lu_load_balance(self):
        """Round-robin column ownership keeps LU roughly balanced."""
        system = MPSystem(4, SystemKind.INTEGRATED)
        kernel = LUKernel(n=32, block=4)
        MPEngine(system).run(kernel.build(4, system.layout))
        assert 1.0 <= imbalance(system) < 1.6

    def test_engine_kernel_imbalance_visible(self):
        """A deliberately skewed kernel shows up in per-node stats."""

        def kernel(pid, nprocs):
            for i in range(100 if pid == 0 else 10):
                yield READ, pid * NODE_REGION_BYTES + i * 64

        system = MPSystem(2, SystemKind.INTEGRATED)
        MPEngine(system).run(kernel)
        assert system.node_stats[0].total == 100
        assert system.node_stats[1].total == 10
        assert imbalance(system) == pytest.approx(
            100 / 55, rel=0.01
        )
