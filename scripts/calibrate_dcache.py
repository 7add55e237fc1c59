"""Calibration helper: D-cache miss rates for every proxy vs paper targets.

Run:  python scripts/calibrate_dcache.py [trace_len]
"""

import sys
import time

from repro.caches import (
    direct_mapped_miss_rate,
    proposed_dcache,
    set_assoc_miss_rate,
)
from repro.common.params import CacheGeometry
from repro.common.units import KB
from repro.workloads.spec import all_proxies

# Rough targets implied by the paper's Tables 3/4 memory-CPI split and the
# Section 5.3/5.4 text (no-victim, with-victim).
TARGETS = {
    "099.go": (0.30, 0.20),
    "124.m88ksim": (0.06, 0.05),
    "126.gcc": (0.08, 0.07),
    "129.compress": (0.09, 0.08),
    "130.li": (0.035, 0.02),
    "132.ijpeg": (0.006, 0.006),
    "134.perl": (0.11, 0.09),
    "147.vortex": (0.14, 0.11),
    "101.tomcatv": (0.22, 0.05),
    "102.swim": (0.40, 0.07),
    "103.su2cor": (0.20, 0.06),
    "104.hydro2d": (0.02, 0.015),
    "107.mgrid": (0.004, 0.004),
    "110.applu": (0.006, 0.006),
    "125.turb3d": (0.025, 0.025),
    "141.apsi": (0.035, 0.025),
    "145.fpppp": (0.03, 0.02),
    "146.wave5": (0.11, 0.04),
    "synopsys": (0.15, 0.12),
}


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    t0 = time.time()
    header = (
        f"{'bench':14s} {'prop':>7s} {'tgt':>6s} {'prop+v':>7s} {'tgt':>6s} "
        f"{'dm8':>7s} {'dm16':>7s} {'2w16':>7s} {'dm64':>7s} {'dm256':>7s}"
    )
    print(header)
    for proxy in all_proxies():
        trace = proxy.data_trace(n, seed=1)
        plain = proposed_dcache(with_victim=False)
        plain.run(trace)
        vict = proposed_dcache(with_victim=True)
        vict.run(trace)
        addrs = trace.addresses
        dm8 = direct_mapped_miss_rate(addrs, CacheGeometry(8 * KB, 32, 1))
        dm16 = direct_mapped_miss_rate(addrs, CacheGeometry(16 * KB, 32, 1))
        w16 = set_assoc_miss_rate(addrs, CacheGeometry(16 * KB, 32, 2))
        dm64 = direct_mapped_miss_rate(addrs, CacheGeometry(64 * KB, 32, 1))
        dm256 = direct_mapped_miss_rate(addrs, CacheGeometry(256 * KB, 32, 1))
        tgt_nv, tgt_v = TARGETS[proxy.name]
        print(
            f"{proxy.name:14s} {plain.stats.miss_rate:7.4f} {tgt_nv:6.3f} "
            f"{vict.stats.miss_rate:7.4f} {tgt_v:6.3f} "
            f"{dm8:7.4f} {dm16:7.4f} {w16:7.4f} {dm64:7.4f} {dm256:7.4f}"
        )
    print("time", round(time.time() - t0, 1), "s")


if __name__ == "__main__":
    main()
