"""Sweepable entry points: one function call per design-space point.

A *base* is a registry-style entry point built for parameter sweeps:
a module-level function whose keyword arguments are exactly the
sweepable **axes** (line size, bank count, victim entries, memory
latency, node count, emerging-memory latency profile) plus a few fixed
knobs (benchmark, trace length, seed), and whose return value is a flat
``{metric: float}`` dict.  The sweep compiler
(:mod:`repro.sweep.engine`) materializes one :class:`repro.runner.Task`
per expanded configuration over these functions, so every configuration

- runs through the supervised process pool (timeouts, quarantine,
  span transport) exactly like a registered experiment, and
- caches under a :func:`repro.runner.fingerprint.slice_fingerprint`
  keyed entry — the functions here are module-level precisely so
  ``Task.entry_point()`` resolves and the dependency slicer can hash
  only the modules each base actually reaches.  Two sweeps sharing a
  configuration therefore collapse onto one cached result.

Returning plain dicts (not experiment result objects) keeps the worker
boundary thin: Pareto reduction and rendering happen in the parent
process (see DESIGN.md §7), workers only ever compute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import ConfigError
from repro.common.params import (
    DRAMTiming,
    IntegratedDeviceParams,
    VictimCacheParams,
)
from repro.common.rng import make_rng, split_rng
from repro.gspn.models import (
    ISSUE_TRANSITION,
    ProcessorNetParams,
    bank_ready_place,
    build_processor_net,
)
from repro.gspn.sim import GSPNSimulator
from repro.mp.system import SystemKind
from repro.uniproc.measurement import measure_conventional, measure_integrated
from repro.workloads.spec import get_proxy
from repro.workloads.splash import KERNELS

# ---------------------------------------------------------------------------
# Axes and latency profiles
# ---------------------------------------------------------------------------

#: Memory-technology latency profiles, in 200 MHz CPU cycles.  The
#: paper's on-die DRAM is the 30 ns point (Section 4.1); the slower
#: entries model emerging dense memories (3DXPoint-class persistent
#: memory reads are ~1 order of magnitude slower than DRAM).
LATENCY_PROFILES: dict[str, DRAMTiming] = {
    "dram-30ns": DRAMTiming(access_cycles=6, precharge_cycles=4),
    "dram-60ns": DRAMTiming(access_cycles=12, precharge_cycles=6),
    "edram-45ns": DRAMTiming(access_cycles=9, precharge_cycles=5),
    "xpoint-300ns": DRAMTiming(access_cycles=60, precharge_cycles=0),
}


def _positive_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _positive_number(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value > 0)


#: Axis name -> (human description, value validator).  Axis *names* are
#: the keyword arguments of the base functions below; a sweep spec may
#: only sweep axes its base declares (see :class:`SweepBase.axes`).
AXES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "line_bytes": ("cache line (DRAM column) size in bytes", _positive_int),
    "num_banks": ("DRAM bank count", _positive_int),
    "victim_entries": ("victim-cache entry count", _positive_int),
    "mem_latency": ("main-memory access latency in cycles", _positive_number),
    "node_count": ("processor/node count", _positive_int),
    "latency_profile": (
        "memory-technology timing profile",
        lambda value: isinstance(value, str) and value in LATENCY_PROFILES,
    ),
}


def _gspn_point(
    rates_probs: tuple,
    benchmark: str,
    num_banks: int,
    timing: DRAMTiming,
    instructions: int,
    seed: int,
    *,
    has_l2: bool = False,
    l2_latency: float = 6.0,  # repro: unit(cycles)
) -> tuple[float, float]:
    """``(cpi, mean bank utilization)`` from the Figure 10 processor net."""
    ifetch, load, store, p_load, p_store = rates_probs
    params = ProcessorNetParams(
        p_load=p_load,
        p_store=p_store,
        ifetch=ifetch,
        load=load,
        store=store,
        mem_access=timing.access_cycles,
        precharge=timing.precharge_cycles,
        num_banks=num_banks,
        has_l2=has_l2,
        l2_latency=l2_latency,
    )
    net = build_processor_net(params)
    track = tuple(bank_ready_place(b) for b in range(num_banks))
    sim = GSPNSimulator(
        net,
        split_rng(make_rng(seed), benchmark, f"sweep-banks{num_banks}"),
        track_places=track,
    )
    result = sim.run(stop_transition=ISSUE_TRANSITION, stop_count=instructions)
    cpi = result.time / result.firings[ISSUE_TRANSITION]
    utilization = sum(result.busy_fraction[p] for p in track) / num_banks
    return cpi, utilization


def _integrated_rates(proxy, params: IntegratedDeviceParams, trace_len: int,
                      seed: int, with_victim: bool):
    rates = measure_integrated(proxy, trace_len, seed, with_victim, params)
    probs = (rates.ifetch, rates.load, rates.store,
             proxy.mix.p_load, proxy.mix.p_store)
    return rates, probs


# ---------------------------------------------------------------------------
# Base point functions (module-level: picklable, sliceable, cacheable)
# ---------------------------------------------------------------------------


def icache_point(
    benchmark: str = "126.gcc",
    line_bytes: int = 512,
    num_banks: int = 16,
    latency_profile: str = "dram-30ns",
    trace_len: int = 60_000,
    instructions: int = 8_000,
    seed: int = 0,
) -> dict[str, float]:
    """One Figure 7 pipeline point: I-cache miss rate, CPI, utilization.

    Rebuilds the integrated device with the swept geometry (the I-cache
    is ``num_banks`` direct-mapped columns of ``line_bytes`` each, so
    capacity co-varies with both axes exactly as on the real device),
    measures miss rates trace-driven, then dials them into the
    processor GSPN for CPI and time-averaged bank utilization.
    """
    timing = LATENCY_PROFILES[latency_profile]
    params = IntegratedDeviceParams(
        num_banks=num_banks, column_bytes=line_bytes, dram=timing,
    )
    proxy = get_proxy(benchmark)
    rates, probs = _integrated_rates(proxy, params, trace_len, seed, True)
    cpi, utilization = _gspn_point(
        probs, benchmark, num_banks, timing, instructions, seed,
    )
    return {
        "miss_rate": rates.icache_miss_rate,
        "cpi": proxy.base_cpi() + max(0.0, cpi - 1.0),
        "bank_utilization": utilization,
    }


def dcache_point(
    benchmark: str = "126.gcc",
    line_bytes: int = 512,
    num_banks: int = 16,
    victim_entries: int = 16,
    latency_profile: str = "dram-30ns",
    trace_len: int = 60_000,
    instructions: int = 8_000,
    seed: int = 0,
) -> dict[str, float]:
    """One Figure 8 pipeline point: D-cache miss rate, CPI, utilization.

    Like :func:`icache_point` but reporting the data side, with the
    victim-cache entry count as an extra axis (Section 5.4's 16-entry
    default is one grid point among many).
    """
    timing = LATENCY_PROFILES[latency_profile]
    params = IntegratedDeviceParams(
        num_banks=num_banks,
        column_bytes=line_bytes,
        dram=timing,
        victim=VictimCacheParams(entries=victim_entries),
    )
    proxy = get_proxy(benchmark)
    rates, probs = _integrated_rates(proxy, params, trace_len, seed, True)
    cpi, utilization = _gspn_point(
        probs, benchmark, num_banks, timing, instructions, seed,
    )
    return {
        "miss_rate": rates.dcache_miss_rate,
        "cpi": proxy.base_cpi() + max(0.0, cpi - 1.0),
        "bank_utilization": utilization,
    }


def conventional_point(
    benchmark: str = "126.gcc",
    mem_latency: float = 24.0,  # repro: unit(cycles)
    num_banks: int = 2,
    l2_latency: float = 6.0,  # repro: unit(cycles)
    trace_len: int = 60_000,
    instructions: int = 8_000,
    seed: int = 0,
) -> dict[str, float]:
    """One conventional-system point (the Figure 11 pipeline).

    Miss rates come from the split-L1 + shared-L2 hierarchy; the swept
    main-memory latency and bank count feed the has-L2 variant of the
    processor net.
    """
    proxy = get_proxy(benchmark)
    rates = measure_conventional(proxy, trace_len, seed)
    probs = (rates.ifetch, rates.load, rates.store,
             proxy.mix.p_load, proxy.mix.p_store)
    timing = DRAMTiming(access_cycles=max(1, round(mem_latency)),
                       precharge_cycles=4)
    cpi, utilization = _gspn_point(
        probs, benchmark, num_banks, timing, instructions, seed,
        has_l2=True, l2_latency=l2_latency,
    )
    return {
        "miss_rate": rates.dcache_miss_rate,
        "cpi": proxy.base_cpi() + max(0.0, cpi - 1.0),
        "bank_utilization": utilization,
    }


def splash_point(
    kernel: str = "lu",
    node_count: int = 4,
    system: str = "integrated",
) -> dict[str, float]:
    """One SPLASH multiprocessor point (the Figures 13-17 pipeline).

    ``execution_time`` is the kernel's simulated cycle count on
    ``node_count`` processors; ``cycles_per_proc`` normalizes it so a
    node-count axis can still expose the scaling knee as a Pareto
    trade-off (fewer nodes = less hardware, more cycles).
    """
    kind = SystemKind(system)
    kernel_obj = KERNELS[kernel]()
    result, _ = kernel_obj.run_on(kind, node_count)
    return {
        "execution_time": float(result.execution_time),
        "cycles_per_proc": float(result.execution_time) * node_count,
    }


# ---------------------------------------------------------------------------
# Base registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepBase:
    """One sweepable pipeline: entry point, axes, metrics, defaults."""

    name: str
    fn: Callable[..., dict[str, float]]
    summary: str
    axes: tuple[str, ...]  # axis names the base accepts (sweepable)
    fixed: tuple[str, ...]  # non-axis kwargs a spec may pin
    metrics: tuple[str, ...]  # keys of the returned dict
    #: default Pareto objectives as ``(metric, goal)`` pairs; a spec may
    #: override with its own ``[[objectives]]`` table.
    objectives: tuple[tuple[str, str], ...]

    @property
    def entry_point(self) -> str:
        """Dotted function name, mirroring ``ExperimentSpec.entry_point``."""
        return f"{self.fn.__module__}.{self.fn.__qualname__}"


_UNIPROC_METRICS = ("miss_rate", "cpi", "bank_utilization")
# Lower is better on every default objective: misses and CPI are cost,
# and low bank utilization means the banks retain headroom for refresh,
# speculative writebacks and I/O traffic (Section 5.6 reads it this way).
_UNIPROC_OBJECTIVES = (("miss_rate", "min"), ("cpi", "min"),
                       ("bank_utilization", "min"))

BASES: dict[str, SweepBase] = {  # repro: allow(mutable-global)
    "figure7": SweepBase(
        name="figure7",
        fn=icache_point,
        summary="integrated I-cache pipeline (trace-driven miss rate -> GSPN)",
        axes=("line_bytes", "num_banks", "latency_profile"),
        fixed=("benchmark", "trace_len", "instructions", "seed"),
        metrics=_UNIPROC_METRICS,
        objectives=_UNIPROC_OBJECTIVES,
    ),
    "figure8": SweepBase(
        name="figure8",
        fn=dcache_point,
        summary="integrated D-cache pipeline with victim cache",
        axes=("line_bytes", "num_banks", "victim_entries", "latency_profile"),
        fixed=("benchmark", "trace_len", "instructions", "seed"),
        metrics=_UNIPROC_METRICS,
        objectives=_UNIPROC_OBJECTIVES,
    ),
    "figure11": SweepBase(
        name="figure11",
        fn=conventional_point,
        summary="conventional reference system (split L1 + L2 hierarchy)",
        axes=("mem_latency", "num_banks"),
        fixed=("benchmark", "l2_latency", "trace_len", "instructions", "seed"),
        metrics=_UNIPROC_METRICS,
        objectives=_UNIPROC_OBJECTIVES,
    ),
    "figures13-17": SweepBase(
        name="figures13-17",
        fn=splash_point,
        summary="SPLASH kernels on the multiprocessor systems",
        axes=("node_count",),
        fixed=("kernel", "system"),
        metrics=("execution_time", "cycles_per_proc"),
        objectives=(("execution_time", "min"), ("cycles_per_proc", "min")),
    ),
}


def base_entry_points() -> dict[str, str]:
    """Sweep base name -> dotted entry-point name (doc-coverage, deps)."""
    return {name: base.entry_point for name, base in BASES.items()}


def validate_axis_value(axis: str, value: Any) -> str | None:
    """None if ``value`` is legal for ``axis``, else a short reason."""
    description, validator = AXES[axis]
    if validator(value):
        # Geometry constraints surface early, with the axis named,
        # instead of as a worker-side ConfigError mid-sweep.
        if axis in ("line_bytes", "num_banks"):
            try:
                IntegratedDeviceParams(
                    num_banks=value if axis == "num_banks" else 16,
                    column_bytes=value if axis == "line_bytes" else 512,
                )
            except ConfigError as exc:
                return str(exc)
        return None
    if axis == "latency_profile":
        return (f"expected one of {', '.join(sorted(LATENCY_PROFILES))}, "
                f"got {value!r}")
    return f"expected a positive number for {description}, got {value!r}"
