"""Integration tests: chains crossing several subsystems."""

import pytest

from repro.coherence.engines import engine_report
from repro.coherence.protocol import BlockState
from repro.mp.engine import MPEngine
from repro.mp.system import MPSystem, SystemKind
from repro.paperdata import PAPER_TABLE4
from repro.uniproc import integrated_cpi
from repro.workloads.spec import get_proxy
from repro.workloads.splash import LUKernel, OceanKernel


class TestUniprocessorChain:
    """proxy -> caches -> GSPN -> CPI -> Spec ratio, end to end."""

    @pytest.mark.parametrize("name", ["107.mgrid", "102.swim"])
    def test_table4_estimate_tracks_paper(self, name):
        estimate = integrated_cpi(get_proxy(name), trace_len=60_000,
                                  instructions=8_000)
        paper = PAPER_TABLE4[name]
        assert estimate.total_cpi == pytest.approx(paper.total_cpi, rel=0.15)
        assert estimate.spec_ratio == pytest.approx(paper.spec_ratio, rel=0.15)

    def test_estimate_is_reproducible(self):
        a = integrated_cpi(get_proxy("126.gcc"), trace_len=30_000,
                           instructions=4_000, seed=9)
        b = integrated_cpi(get_proxy("126.gcc"), trace_len=30_000,
                           instructions=4_000, seed=9)
        assert a.total_cpi == b.total_cpi


class TestMultiprocessorChain:
    def test_directory_consistent_after_real_workload(self):
        system = MPSystem(4, SystemKind.INTEGRATED)
        kernel = OceanKernel(n=18, iterations=2)
        MPEngine(system).run(kernel.build(4, system.layout))
        # Every directory entry still satisfies its invariants, and every
        # EXCLUSIVE owner really holds the block.
        for block, entry in system.directory._entries.items():
            entry.check()
            if entry.state is BlockState.EXCLUSIVE:
                assert system.nodes[entry.owner].holds_remote(block) or (
                    system.layout.home_of(block) == entry.owner
                )

    def test_fabric_feeds_engine_occupancy_analysis(self):
        system = MPSystem(4, SystemKind.INTEGRATED)
        kernel = LUKernel(n=16, block=4)
        result = MPEngine(system).run(kernel.build(4, system.layout))
        report = engine_report(system.fabric.stats, result.execution_time, 4)
        assert 0.0 <= report.outbound_occupancy < 0.7
        assert not report.saturated

    def test_all_four_system_kinds_run_the_same_kernel(self):
        times = {}
        for kind in SystemKind:
            kernel = LUKernel(n=16, block=4)
            result, _ = kernel.run_on(kind, 2)
            assert kernel.verify()
            times[kind] = result.execution_time
        # Timing differs across systems, results do not (checked above).
        assert len(set(times.values())) > 1
