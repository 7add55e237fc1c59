"""Simple-COMA mode tests (the Section 4.2 extension)."""

import pytest

from repro.common.params import MPLatencies
from repro.mp.layout import NODE_REGION_BYTES
from repro.mp.node import HitLevel, SCOMANode
from repro.mp.system import MPSystem, SystemKind
from repro.workloads.splash import LUKernel

LAT = MPLatencies()
REMOTE_BASE = NODE_REGION_BYTES


class TestSCOMANode:
    def test_first_touch_is_page_fault(self):
        node = SCOMANode(0)
        assert node.lookup(REMOTE_BASE, is_local=False) is HitLevel.PAGE_FAULT
        assert node.page_faults == 1

    def test_allocated_page_invalid_block_is_remote(self):
        node = SCOMANode(0)
        node.fill_remote(REMOTE_BASE)  # allocates the page, validates one block
        assert node.lookup(REMOTE_BASE + 64, is_local=False) is HitLevel.REMOTE
        assert node.page_faults == 0 or node.page_faults == 0

    def test_valid_block_served_at_local_latency(self):
        node = SCOMANode(0)
        node.fill_remote(REMOTE_BASE)
        level = node.lookup(REMOTE_BASE, is_local=False)
        # First access loads the column (local memory), then it hits.
        assert level in (HitLevel.LOCAL_MEMORY, HitLevel.CACHE, HitLevel.VICTIM)
        assert node.lookup(REMOTE_BASE, is_local=False) in (
            HitLevel.CACHE, HitLevel.VICTIM
        )

    def test_invalidation_revokes_block_not_page(self):
        node = SCOMANode(0)
        node.fill_remote(REMOTE_BASE)
        node.invalidate(REMOTE_BASE)
        assert node.lookup(REMOTE_BASE, is_local=False) is HitLevel.REMOTE
        assert not node.holds_remote(REMOTE_BASE)


class TestSCOMASystem:
    def test_first_touch_pays_fault_plus_remote(self):
        system = MPSystem(2, SystemKind.SCOMA)
        latency = system.access(0, REMOTE_BASE, write=False)
        assert latency == LAT.scoma_page_fault + LAT.remote_load

    def test_same_page_second_block_pays_remote_only(self):
        system = MPSystem(2, SystemKind.SCOMA)
        system.access(0, REMOTE_BASE, write=False)
        assert system.access(0, REMOTE_BASE + 64, write=False) == LAT.remote_load

    def test_reuse_is_local_speed(self):
        system = MPSystem(2, SystemKind.SCOMA)
        system.access(0, REMOTE_BASE, write=False)
        system.access(0, REMOTE_BASE, write=False)  # column now loaded
        assert system.access(0, REMOTE_BASE, write=False) == LAT.cache_hit

    def test_coherence_still_enforced(self):
        system = MPSystem(2, SystemKind.SCOMA)
        system.access(0, REMOTE_BASE, write=False)  # node 0 imports
        system.access(1, REMOTE_BASE, write=True)  # home writes
        # Node 0's copy was invalidated: next access re-fetches remotely.
        latency = system.access(0, REMOTE_BASE, write=False)
        assert latency == LAT.remote_load

    def test_lu_runs_and_verifies_on_scoma(self):
        kernel = LUKernel(n=16, block=4)
        result, system = kernel.run_on(SystemKind.SCOMA, 4)
        assert kernel.verify()
        assert result.execution_time > 0

    def test_scoma_beats_small_inc_on_reuse_heavy_working_set(self):
        """When the imported working set exceeds the INC, the attraction
        memory wins (the capacity argument for S-COMA)."""
        from repro.mp.engine import MPEngine
        from repro.mp.ops import READ

        def kernel(pid, nprocs):
            # Node 0 repeatedly sweeps 64 KB of node 1's memory.
            if pid != 0:
                return
            for _ in range(4):
                for offset in range(0, 64 * 1024, 32):
                    yield READ, REMOTE_BASE + offset

        # CC-NUMA with a tiny INC (4 KB reservation): the working set
        # never fits, so every sweep re-fetches remotely.
        cc = MPSystem(2, SystemKind.INTEGRATED, inc_bytes=4096)
        time_cc = MPEngine(cc).run(kernel).execution_time
        scoma = MPSystem(2, SystemKind.SCOMA)
        time_scoma = MPEngine(scoma).run(kernel).execution_time
        assert time_scoma < time_cc / 2
