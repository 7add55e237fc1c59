"""Extension studies beyond the paper's tables: Simple-COMA mode,
speculative writebacks, protocol-engine occupancy, the Section 8 vision,
and the Section 5.6 line-size warning."""

from repro.analysis import ascii_table, percent
from repro.analysis.vision import framebuffer_budget, motherboard_budget
from repro.caches import ColumnBufferCache
from repro.coherence.engines import engine_report
from repro.common.params import CacheGeometry
from repro.dram.writeback import writeback_study
from repro.mp.engine import MPEngine
from repro.mp.system import MPSystem, SystemKind
from repro.workloads.spec import get_proxy
from repro.workloads.splash import LUKernel


def test_bench_scoma_vs_ccnuma():
    """Section 4.2: the protocol engines support both CC-NUMA and S-COMA."""
    rows = []
    for kind in (SystemKind.INTEGRATED, SystemKind.SCOMA,
                 SystemKind.REFERENCE):
        times = []
        for procs in (1, 2, 4, 8):
            kernel = LUKernel(n=48, block=4)
            result, _ = kernel.run_on(kind, procs)
            times.append(result.execution_time)
        rows.append([kind.value] + times)
    print()
    print("LU on CC-NUMA (integrated), Simple-COMA and the reference system")
    print(ascii_table(["system", "p=1", "p=2", "p=4", "p=8"], rows))
    by_kind = {row[0]: row[1:] for row in rows}
    # Both integrated modes beat the reference at small p.
    assert by_kind["scoma"][0] <= by_kind["reference"][0]
    assert by_kind["integrated"][0] <= by_kind["reference"][0]


def test_bench_speculative_writeback():
    """Section 4.1: speculative writebacks remove miss/dirty contention."""
    trace = get_proxy("102.swim").data_trace(80_000, seed=1)
    conventional, speculative = [
        writeback_study(trace, speculative=flag, with_victim=False)
        for flag in (False, True)
    ]
    print()
    print("Speculative writeback study (swim data stream, no victim cache)")
    print(ascii_table(
        ["policy", "misses", "dirty evictions", "mean miss cycles",
         "hidden writebacks"],
        [
            [r.policy, r.misses, r.dirty_evictions,
             round(r.mean_miss_cycles, 2), percent(r.hidden_fraction)]
            for r in (conventional, speculative)
        ],
    ))
    assert speculative.mean_miss_cycles <= conventional.mean_miss_cycles
    assert speculative.hidden_fraction > 0.8


def test_bench_line_size_warning():
    """Section 5.6: "increasing the line size will degrade performance
    due to higher resultant cache conflicts" (the 4-bank alternative)."""
    trace = get_proxy("101.tomcatv").data_trace(80_000, seed=1)
    rows = []
    for banks, line in ((16, 512), (8, 1024), (4, 2048)):
        geometry = CacheGeometry(banks * 2 * line, line, 2)
        cache = ColumnBufferCache(geometry)
        stats = cache.run(trace)
        rows.append([f"{banks} banks x {line} B lines",
                     percent(stats.miss_rate)])
    print()
    print("Line-size alternative for fewer banks, tomcatv (constant capacity)")
    print(ascii_table(["organization", "miss rate"], rows))
    rates = [float(rate.rstrip("%")) for _, rate in rows]
    assert rates[-1] > rates[0], "longer lines must raise conflicts"


def test_bench_engines_and_vision():
    """Protocol-engine occupancy on a real run + the Section 8 budgets."""
    system = MPSystem(8, SystemKind.INTEGRATED)
    kernel = LUKernel(n=32, block=4)
    result = MPEngine(system).run(kernel.build(8, system.layout))
    report = engine_report(system.fabric.stats, result.execution_time, 8)
    framebuffer, board = framebuffer_budget(), motherboard_budget(64)
    print()
    print(f"Protocol engines (LU, 8 nodes): outbound "
          f"{report.outbound_occupancy:.2%}, inbound "
          f"{report.inbound_occupancy:.2%}, saturated={report.saturated}")
    print(f"Framebuffer refresh: {framebuffer.bandwidth_gbytes:.3f} GB/s = "
          f"{framebuffer.internal_fraction:.1%} of internal bandwidth "
          f"(feasible={framebuffer.feasible})")
    print(f"64-device motherboard: {board.memory_gbytes:.1f} GB memory, "
          f"{board.bisection_gbytes:.1f} GB/s bisection, "
          f"{board.power_watts:.0f} W")
    assert not report.saturated
    assert framebuffer.feasible
    assert board.power_watts < 150
