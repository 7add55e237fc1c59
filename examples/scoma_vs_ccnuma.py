"""CC-NUMA vs Simple-COMA: the two shared-memory modes of Section 4.2.

The device's protocol engines run downloadable microcode supporting both
models.  CC-NUMA caches imported data in a fixed Inter-Node Cache;
Simple-COMA *allocates* it page-by-page in local memory (an attraction
memory), trading a software page fault on first touch for local-latency
reuse and effectively unlimited import capacity.

The demo pressures both with a remote working set far larger than the
INC — the case S-COMA was designed for — and then shows the flip side:
a sparse access pattern where S-COMA's page faults dominate.

    python examples/scoma_vs_ccnuma.py
"""

from repro.mp.engine import MPEngine
from repro.mp.layout import NODE_REGION_BYTES
from repro.mp.ops import READ
from repro.mp.system import MPSystem, SystemKind


def dense_reuse_kernel(pid, nprocs):
    """Node 0 repeatedly sweeps 256 KB of node 1's memory."""
    if pid != 0:
        return
    for _ in range(4):
        for offset in range(0, 256 * 1024, 32):
            yield READ, NODE_REGION_BYTES + offset


def sparse_touch_kernel(pid, nprocs):
    """Node 0 touches one word per remote page, once."""
    if pid != 0:
        return
    for page in range(512):
        yield READ, NODE_REGION_BYTES + page * 4096


def run(label, kernel, inc_bytes):
    print(f"{label}:")
    for kind in (SystemKind.INTEGRATED, SystemKind.SCOMA):
        system = MPSystem(2, kind, inc_bytes=inc_bytes)
        result = MPEngine(system).run(kernel)
        print(f"  {kind.value:12s} {result.execution_time:10d} cycles")
    print()


def main() -> None:
    # A 64 KB INC reservation: far smaller than the 256 KB working set.
    run("dense reuse of a 256 KB remote working set (64 KB INC)",
        dense_reuse_kernel, inc_bytes=64 * 1024)
    run("sparse first-touch of 512 remote pages",
        sparse_touch_kernel, inc_bytes=64 * 1024)
    print("S-COMA wins when imported data is reused beyond the INC's\n"
          "capacity; CC-NUMA wins when pages are touched once — the\n"
          "trade-off the microcoded protocol engines let a system choose\n"
          "at boot time (Section 4.2).")


if __name__ == "__main__":
    main()
