"""Ablations of the design choices DESIGN.md calls out.

Not a paper table — these sweeps justify the device's configuration:
victim-cache size, scoreboarding, the long-line/victim pairing, and the
ECC-widening directory trick.
"""

from repro.analysis import ascii_table, percent
from repro.caches import ColumnBufferCache, VictimCache
from repro.common.params import CacheGeometry, VictimCacheParams
from repro.dram.ecc import directory_bits_per_block, ecc_overhead_fraction
from repro.uniproc import integrated_cpi
from repro.workloads.spec import get_proxy


def test_bench_victim_size_ablation():
    trace = get_proxy("101.tomcatv").data_trace(100_000, seed=1)
    rows = []
    for entries in (0, 2, 4, 8, 16, 32, 64):
        victim = (
            VictimCache(VictimCacheParams(entries=entries)) if entries else None
        )
        cache = ColumnBufferCache(CacheGeometry(16 * 1024, 512, 2), victim=victim)
        stats = cache.run(trace)
        rows.append([entries, percent(stats.miss_rate)])
    print()
    print("Victim-cache size ablation (tomcatv D-stream)")
    print(ascii_table(["entries", "miss rate"], rows))
    miss = {entries: rate for entries, rate in rows}
    # The paper's 16-entry choice captures nearly all of the benefit.
    assert float(miss[16].rstrip("%")) < float(miss[0].rstrip("%")) / 3
    assert float(miss[64].rstrip("%")) > float(miss[16].rstrip("%")) * 0.5


def test_bench_scoreboard_ablation():
    proxy = get_proxy("102.swim")
    rows = []
    for rate in (None, 0.5, 1.0, 2.0):
        est = integrated_cpi(
            proxy,
            scoreboard_rate=rate,
            trace_len=50_000,
            instructions=8_000,
        )
        rows.append([str(rate), est.memory_cpi])
    print()
    print("Scoreboard-rate ablation (swim memory CPI; None = no scoreboard)")
    print(ascii_table(["T23 rate", "memory CPI"], rows))
    by_rate = {r[0]: r[1] for r in rows}
    # No scoreboard stalls on every outstanding load: worst memory CPI.
    assert by_rate["None"] >= by_rate["1.0"]


def test_bench_ecc_directory_tradeoff():
    result = {
        "overhead_64": ecc_overhead_fraction(64),
        "overhead_128": ecc_overhead_fraction(128),
        "free_bits": directory_bits_per_block(32),
    }
    print()
    print("ECC word-width trade-off (Figure 5):")
    print(f"  64-bit words : {result['overhead_64']:.3%} overhead")
    print(f"  128-bit words: {result['overhead_128']:.3%} overhead")
    print(f"  directory bits freed per 32 B block: {result['free_bits']}")
    assert result["free_bits"] == 14
