#!/usr/bin/env python
"""CI gate for the fast paths: exactness, engagement and memory.

Three properties of the vectorized cache engines, all hard requirements:

- **Exactness** — on a realistic mixed workload (SPEC proxy traces),
  the fast engines must produce results identical to the
  object-oriented simulators, field by field: per-reference miss
  flags, victim-hit flags, load/store hit splits, evictions,
  writebacks, and every victim counter.  The column buffer is checked
  in all three Figure 7/8 configurations (the I-cache, and the D-cache
  with and without its victim buffer) against ``ColumnBufferCache``
  through ``tests/caches/reference_column_buffer.py``, and the
  conventional direct-mapped and 2-way caches of Figures 7/8 against
  ``SetAssociativeCache``: each geometry's miss flags, and the miss
  rates ``set_assoc_miss_rates`` gives for each figure's whole geometry
  list from one set sort.  The measurement stage compares both
  ``measure_*`` functions, the shared-L2 merge included, with the
  replay of a frozen copy of the per-block split in
  ``tests/uniproc/reference_measurement.py``.
  This is the same differential contract the hypothesis suites in
  ``tests/caches`` pin on random traces, re-checked here on the traces
  the figures actually use.
- **Engagement** — the fast engines must beat the object-oriented
  oracle in-process by at least ``MIN_INPROCESS_SPEEDUP``, so a
  regression that silently falls back to the scalar path fails the
  build on any machine.  The D-cache with its victim buffer, whose
  engine replays runs scalar-side, is timed on its own line with its
  own floor, ``MIN_VICTIM_SPEEDUP``, so the closed-form
  configurations cannot hide a slow replay.  (The in-process ratio
  understates the pipeline win: the oracle loop here skips the
  per-block span accounting the old pipeline paid.)  Repeated timings
  with noise bands are perfbench's job (``python3 perfbench/run.py
  --workload missrate``), not this gate's.
- **Memory** — the victim replay streams its runs in bounded chunks:
  one victim ``column_buffer_fast`` call on each of the 120k-reference
  ``VICTIM_MEMORY_PROXIES`` data traces at seed 1 must peak under
  ``MAX_VICTIM_PEAK_MIB`` as ``tracemalloc`` counts it, so a replay
  that materializes whole-trace Python lists again fails.

The MP section holds the multiprocessor engine to the same contract:
the SPLASH kernels at perfbench's ``full`` sizes, 8 processors, on all
four system kinds must give results identical to the object-oriented
oracle in ``tests/mp/reference_mp.py`` (``MPResult``, access, directory
and fabric statistics, every node's cache counters and contents).  The
engine's op loop serves local MRU hits itself and credits their
counters once per run; the ``mp_fast_hits`` tally of the hits it served
must reach ``MIN_MP_FAST_HITS``, so a silent fall-back to the protocol
path fails.  The in-process ratio of fast to oracle time, both engines
on the same op streams in one process, must stay under
``MAX_MP_TIME_RATIO``, so an op loop or protocol path that slows down
against the oracle fails.

The GSPN section holds the memoizing Monte-Carlo evaluator to its
oracle: the Figure 10 nets perfbench's ``uniproc-cpi`` workload runs, at
its ``full`` sizes and seed 0 — a Table 4 integrated point, two Figure
11 conventional points (memory latency 10, then 30), and Section 5.6 at
2, 4, 8 and 16 banks with the bank places tracked — must give
``SimResult`` fields and generator states identical to the interpreter
in ``tests/gspn/reference_sim.py``.  ``learned_steps`` counts the steps
a simulator stored in the marking memo its net shape shares in-process.
Each simulator that is the first of its shape must have stored some,
and no more than ``MAX_GSPN_LEARNED_FRACTION`` of its firings, so a memo
that is off or never hits fails.  The second conventional point has the
first one's shape: it must store fewer steps than the first, and no more
than ``MAX_GSPN_SHARED_FRACTION`` of its firings, so a memo that
silently stops being shared fails.

Run directly::

    python scripts/check_fast_paths.py [--out report.json]

Exit status is non-zero on any mismatch or a missed engagement floor.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the oracles live under tests/

TRACE_LEN = 120_000
PROXIES = ("126.gcc", "101.tomcatv", "134.perl")
MIN_INPROCESS_SPEEDUP = 3.0
# The victim configuration alone.  Measured at 120k: 4.2x with a replay
# that held its runs as whole-trace lists, 5.8x with chunked runs.
MIN_VICTIM_SPEEDUP = 3.0

# One victim call per trace, 120k data references at seed 1.  Measured
# peaks: 24.6 and 25.9 MiB with whole-trace run lists, 6.9 and 6.4 MiB
# with chunked runs.
VICTIM_MEMORY_PROXIES = ("101.tomcatv", "107.mgrid")
VICTIM_MEMORY_LEN = 120_000
MAX_VICTIM_PEAK_MIB = 12.0

# perfbench's ``full`` splash sizes, run at 8 processors.
SPLASH_FULL = {
    "lu": {"n": 32}, "mp3d": {"particles": 600}, "ocean": {"n": 32},
    "water": {"molecules": 24}, "pthor": {"gates": 750},
}
SPLASH_PROCS = 8
# Measured once over that pass: 365,336 fast hits of 465,984 accesses.
MIN_MP_FAST_HITS = 330_000
# Fast over oracle time for that pass.  Measured on a shared 2-vCPU host
# (Python 3.11): 0.54-0.60 with slotted op records, 0.49-0.51 with
# (opcode, operand) pairs and the trimmed protocol path, 0.69 with the
# engine's fast path switched off.
MAX_MP_TIME_RATIO = 0.65

# perfbench's ``full`` uniproc-cpi sizes and the points checked.
GSPN_TRACE_LEN = 12_000
GSPN_INSTRUCTIONS = 2_000
GSPN_BENCHMARK = "126.gcc"
# Two Figure 11 conventional points: one net shape, so the second runs
# on the marking memo the first stored.
GSPN_MEM_LATENCIES = (10, 30)
GSPN_BANKS = (2, 4, 8, 16)
# Stored steps per firing.  Measured at seed 0: 0.109 on the integrated
# point and 0.108 at 16 banks, the highest of these nets; a memo that
# never hit would store about one step per firing.
MAX_GSPN_LEARNED_FRACTION = 0.15
# Stored steps per firing of the second conventional point.  Measured at
# seed 0: none, as every marking it reaches the first point reached; the
# first stores 0.048 of its firings, so a memo the two do not share fails.
MAX_GSPN_SHARED_FRACTION = 0.01


def _trace_for(name: str, trace_len: int):
    from repro.workloads.spec import get_proxy

    proxy = get_proxy(name)
    return (
        proxy.instruction_trace(trace_len, seed=0),
        proxy.data_trace(trace_len // 2, seed=0),
    )


def _identical(fast, exact) -> list[str]:
    problems = []
    if fast.miss_flags.tolist() != exact.miss_flags.tolist():
        problems.append("miss flags differ")
    if fast.victim_hit_flags.tolist() != exact.victim_hit_flags.tolist():
        problems.append("victim-hit flags differ")
    if fast.stats != exact.stats:
        problems.append(f"stats differ: {fast.stats} != {exact.stats}")
    for attr in ("main_hits", "victim_hits", "victim_probes",
                 "victim_inserts", "victim_writebacks"):
        if getattr(fast, attr) != getattr(exact, attr):
            problems.append(
                f"{attr}: {getattr(fast, attr)} != {getattr(exact, attr)}"
            )
    return problems


def check_column_buffer(trace_len: int, with_victim: bool) -> dict:
    """The I-cache and the plain D-cache, or the D-cache with its
    victim buffer alone."""
    from repro.caches.fast import simulate_column_buffer
    from repro.common.params import IntegratedDeviceParams
    from tests.caches.reference_column_buffer import column_buffer_exact

    device = IntegratedDeviceParams()
    refs = 0
    fast_s = exact_s = 0.0
    failures: list[str] = []
    for name in PROXIES:
        itrace, dtrace = _trace_for(name, trace_len)
        configs = (
            ((dtrace, device.dcache_geometry, device.victim),)
            if with_victim else
            ((itrace, device.icache_geometry, None),
             (dtrace, device.dcache_geometry, None))
        )
        for trace, geometry, victim in configs:
            t0 = time.perf_counter()
            fast = simulate_column_buffer(trace, geometry, victim)
            fast_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            exact = column_buffer_exact(trace.addresses, trace.is_write,
                                        geometry, victim)
            exact_s += time.perf_counter() - t0
            refs += len(trace)
            failures += [f"{name}: {p}" for p in _identical(fast, exact)]
    return {
        "refs": refs,
        "fast_s": fast_s,
        "exact_s": exact_s,
        "speedup": exact_s / fast_s if fast_s else float("inf"),
        "failures": failures,
    }


def check_victim_memory() -> dict:
    """Peak ``tracemalloc`` bytes of one victim column-buffer call."""
    import tracemalloc

    from repro.caches.fast import column_buffer_fast
    from repro.common.params import IntegratedDeviceParams
    from repro.workloads.spec import get_proxy

    device = IntegratedDeviceParams()
    peaks = {}
    for name in VICTIM_MEMORY_PROXIES:
        trace = get_proxy(name).data_trace(VICTIM_MEMORY_LEN, seed=1)
        tracemalloc.start()
        try:
            column_buffer_fast(trace.addresses, trace.is_write,
                               device.dcache_geometry, device.victim)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return {
        "peak_mib": peaks,
        "max_peak_mib": MAX_VICTIM_PEAK_MIB,
        "failures": [f"{name}: peak {peak:.1f} MiB, over the ceiling of "
                     f"{MAX_VICTIM_PEAK_MIB} MiB"
                     for name, peak in peaks.items()
                     if peak > MAX_VICTIM_PEAK_MIB],
    }


def check_set_assoc(trace_len: int) -> dict:
    """Figure 7/8's conventional caches against ``SetAssociativeCache``:
    each geometry's miss flags, and the miss rates of each figure's
    whole geometry list from one ``set_assoc_miss_rates`` call."""
    from repro.analysis.experiments import (
        CONVENTIONAL_D_GEOMETRIES,
        CONVENTIONAL_I_GEOMETRIES,
    )
    from repro.caches.fast import set_assoc_miss_flags, set_assoc_miss_rates
    from repro.caches.set_assoc import SetAssociativeCache
    from repro.common.units import KB

    refs = 0
    fast_s = exact_s = 0.0
    failures: list[str] = []
    for name in PROXIES:
        itrace, dtrace = _trace_for(name, trace_len)
        for figure, addrs, geometries in (
            ("figure7", itrace.addresses, CONVENTIONAL_I_GEOMETRIES),
            ("figure8", dtrace.addresses, CONVENTIONAL_D_GEOMETRIES),
        ):
            t0 = time.perf_counter()
            rates = set_assoc_miss_rates(addrs, geometries)
            flags = [set_assoc_miss_flags(addrs, g).tolist() for g in geometries]
            fast_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            exact = []
            for geometry in geometries:
                cache = SetAssociativeCache(geometry)
                exact.append([not cache.access(addr) for addr in addrs.tolist()])
            exact_s += time.perf_counter() - t0
            refs += len(addrs) * len(geometries)
            for geometry, rate, fast, expected in zip(geometries, rates,
                                                      flags, exact):
                label = (f"{name}/{figure}/{geometry.ways}-way/"
                         f"{geometry.size_bytes // KB}K")
                if fast != expected:
                    failures.append(f"{label}: miss flags differ")
                if rate != sum(expected) / len(expected):
                    failures.append(f"{label}: miss rate {rate} != "
                                    f"{sum(expected) / len(expected)}")
    return {
        "refs": refs,
        "fast_s": fast_s,
        "exact_s": exact_s,
        "speedup": exact_s / fast_s if fast_s else float("inf"),
        "failures": failures,
    }


def check_measurement(trace_len: int) -> dict:
    """The full measurement layer (shared-L2 merge included)."""
    from repro.uniproc.measurement import (
        measure_conventional,
        measure_integrated,
    )
    from repro.workloads.spec import get_proxy
    from tests.uniproc.reference_measurement import (
        reference_conventional,
        reference_integrated,
    )

    failures: list[str] = []
    for name in PROXIES:
        proxy = get_proxy(name)
        for fn, oracle in ((measure_integrated, reference_integrated),
                           (measure_conventional, reference_conventional)):
            if fn(proxy, trace_len) != oracle(proxy, trace_len):
                failures.append(f"{name}/{fn.__name__}: MissRates differ")
    return {"failures": failures}


def check_mp() -> dict:
    """The MP engine against its oracle, plus the fast-hit floor."""
    from repro.common import tally
    from repro.mp.engine import MPEngine
    from repro.mp.system import MPSystem, SystemKind
    from repro.workloads.splash import KERNELS
    from tests.mp.reference_mp import (
        ReferenceMPEngine,
        ReferenceMPSystem,
        observables,
    )

    failures: list[str] = []
    fast_s = exact_s = 0.0
    before = tally.snapshot()
    for name, kwargs in SPLASH_FULL.items():
        for kind in SystemKind:
            runs = []
            for system_cls, engine_cls in ((MPSystem, MPEngine),
                                           (ReferenceMPSystem, ReferenceMPEngine)):
                system = system_cls(SPLASH_PROCS, kind)
                kernel = KERNELS[name](**kwargs, seed=0)
                factory = kernel.build(SPLASH_PROCS, system.layout)
                t0 = time.perf_counter()
                result = engine_cls(system).run(factory)
                runs.append((time.perf_counter() - t0,
                             observables(result, system)))
            (t_fast, fast), (t_exact, exact) = runs
            fast_s += t_fast
            exact_s += t_exact
            if fast != exact:
                failures.append(f"{name}/{kind.value}: results differ")
    fast_hits = tally.since(before).get("mp_fast_hits", 0)
    if fast_hits < MIN_MP_FAST_HITS:
        failures.append(f"{fast_hits} fast hits, below the floor of "
                        f"{MIN_MP_FAST_HITS}")
    time_ratio = fast_s / exact_s
    if time_ratio > MAX_MP_TIME_RATIO:
        failures.append(f"fast/oracle time ratio {time_ratio:.2f}, above the "
                        f"ceiling of {MAX_MP_TIME_RATIO}")
    return {
        "runs": len(SPLASH_FULL) * len(SystemKind),
        "fast_hits": fast_hits,
        "min_fast_hits": MIN_MP_FAST_HITS,
        "fast_s": fast_s,
        "exact_s": exact_s,
        "time_ratio": time_ratio,
        "max_time_ratio": MAX_MP_TIME_RATIO,
        "failures": failures,
    }


def check_gspn() -> dict:
    """The GSPN nets of ``uniproc-cpi`` against the interpreter."""
    import copy
    import dataclasses

    from repro.analysis import experiments
    from repro.gspn.sim import GSPNSimulator
    from repro.uniproc import pipeline
    from repro.workloads.spec import get_proxy
    from tests.gspn.reference_sim import ReferenceGSPNSimulator

    failures: list[str] = []
    timings = {"fast_s": 0.0, "exact_s": 0.0}
    nets: list[dict] = []

    class Checked(GSPNSimulator):
        """Replays each run through the oracle from the same start."""

        def __init__(self, net, rng, track_places=()):
            self.oracle_args = (net, copy.deepcopy(rng), tuple(track_places))
            t0 = time.perf_counter()
            super().__init__(net, rng, track_places)
            timings["fast_s"] += time.perf_counter() - t0

        def run(self, **kwargs):
            t0 = time.perf_counter()
            result = super().run(**kwargs)
            timings["fast_s"] += time.perf_counter() - t0
            net, ref_rng, track = self.oracle_args
            t0 = time.perf_counter()
            expected = ReferenceGSPNSimulator(net, ref_rng, track).run(**kwargs)
            timings["exact_s"] += time.perf_counter() - t0
            label = f"{net.name}/{len(nets)}"
            if dataclasses.asdict(result) != dataclasses.asdict(expected):
                failures.append(f"{label}: SimResult differs")
            if self.rng.bit_generator.state != ref_rng.bit_generator.state:
                failures.append(f"{label}: generator state differs")
            nets.append({"net": label, "firings": result.events,
                         "learned_steps": self.learned_steps})
            return result

    proxy = get_proxy(GSPN_BENCHMARK)
    sizes = {"trace_len": GSPN_TRACE_LEN, "instructions": GSPN_INSTRUCTIONS,
             "seed": 0}
    # Every CPI point runs its net through pipeline.processor_net_cpi.
    saved = pipeline.GSPNSimulator
    pipeline.GSPNSimulator = Checked
    try:
        pipeline.integrated_cpi(proxy, **sizes)
        for latency in GSPN_MEM_LATENCIES:
            pipeline.conventional_cpi(proxy, mem_latency=latency, **sizes)
        experiments.section56(GSPN_BENCHMARK, bank_counts=GSPN_BANKS, **sizes)
    finally:
        pipeline.GSPNSimulator = saved
    # Nets in run order: integrated, the two conventional points, banks.
    first, shared = nets[1], nets[2]
    for net in nets:
        learned = net["learned_steps"] / net["firings"]
        if not (learned <= MAX_GSPN_SHARED_FRACTION if net is shared
                else 0 < learned <= MAX_GSPN_LEARNED_FRACTION):
            failures.append(f"{net['net']}: {net['learned_steps']} steps "
                            f"stored over {net['firings']} firings")
    if shared["learned_steps"] >= first["learned_steps"]:
        failures.append(f"{shared['net']}: stored {shared['learned_steps']} "
                        f"steps, no fewer than the {first['learned_steps']} "
                        f"of the first point of its shape")
    return {"nets": nets, "max_learned_fraction": MAX_GSPN_LEARNED_FRACTION,
            "max_shared_fraction": MAX_GSPN_SHARED_FRACTION,
            "shared_learned_steps": shared["learned_steps"],
            **timings, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here")
    parser.add_argument("--trace-len", type=int, default=TRACE_LEN)
    args = parser.parse_args()

    report = {
        "kind": "fast-path-check",
        "schema": 2,
        "min_inprocess_speedup": MIN_INPROCESS_SPEEDUP,
        "min_victim_speedup": MIN_VICTIM_SPEEDUP,
        "trace_len": args.trace_len,
        "column_buffer": check_column_buffer(args.trace_len, False),
        "column_buffer_victim": check_column_buffer(args.trace_len, True),
        "victim_memory": check_victim_memory(),
        "set_assoc": check_set_assoc(args.trace_len),
        "measurement": check_measurement(args.trace_len),
        "mp": check_mp(),
        "gspn": check_gspn(),
    }

    status = 0
    floors = {"column_buffer_victim": MIN_VICTIM_SPEEDUP}
    for stage in ("column_buffer", "column_buffer_victim", "victim_memory",
                  "set_assoc", "measurement", "mp", "gspn"):
        entry = report[stage]
        for failure in entry["failures"]:
            print(f"FAIL {stage}: {failure}")
            status = 1
        if "speedup" in entry:
            floor = floors.get(stage, MIN_INPROCESS_SPEEDUP)
            line = (f"{stage}: {entry['refs']} refs, fast {entry['fast_s']:.2f}s"
                    f" vs exact {entry['exact_s']:.2f}s"
                    f" -> {entry['speedup']:.1f}x")
            if entry["speedup"] < floor:
                print(f"FAIL {line} (floor is {floor:.0f}x)")
                status = 1
            else:
                print(f"ok   {line}")
        elif stage == "victim_memory" and not entry["failures"]:
            peaks = ", ".join(f"{name} {peak:.1f} MiB"
                              for name, peak in entry["peak_mib"].items())
            print(f"ok   victim_memory: peak {peaks}"
                  f" (ceiling {entry['max_peak_mib']} MiB)")
        elif stage == "mp" and not entry["failures"]:
            print(f"ok   mp: {entry['runs']} runs identical,"
                  f" {entry['fast_hits']} fast hits"
                  f" (floor {entry['min_fast_hits']}),"
                  f" {entry['fast_s']:.2f}s vs oracle {entry['exact_s']:.2f}s"
                  f" (ratio {entry['time_ratio']:.2f},"
                  f" ceiling {entry['max_time_ratio']})")
        elif stage == "gspn" and not entry["failures"]:
            worst = max(n["learned_steps"] / n["firings"] for n in entry["nets"])
            print(f"ok   gspn: {len(entry['nets'])} nets identical,"
                  f" at most {worst:.3f} steps stored per firing"
                  f" (ceiling {entry['max_learned_fraction']}),"
                  f" {entry['shared_learned_steps']} on the shared point"
                  f" (ceiling {entry['max_shared_fraction']} per firing),"
                  f" {entry['fast_s']:.2f}s vs oracle {entry['exact_s']:.2f}s")
        elif not entry["failures"]:
            print(f"ok   {stage}: engines identical")
    report["ok"] = status == 0

    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
