"""The sweepable entry point: one function call per design-space point.

:func:`icache_point` is the Figure 7 pipeline built for parameter
sweeps: a module-level function whose keyword arguments are the
sweepable **axes** (:data:`AXES`: line size, bank count,
emerging-memory latency profile) plus a few fixed knobs (benchmark,
trace length, instruction count, seed), and whose return value is a
flat ``{metric: float}`` dict.  The sweep compiler
(:mod:`repro.sweep.engine`) materializes one :class:`repro.runner.Task`
per expanded configuration over it, so every configuration

- runs through the supervised process pool (timeouts, quarantine,
  span transport) exactly like a registered experiment, and
- caches under a :func:`repro.runner.fingerprint.slice_fingerprint`
  keyed entry — the function is module-level precisely so
  ``Task.entry_point()`` resolves and the dependency slicer can hash
  only the modules it actually reaches.  Two sweeps sharing a
  configuration therefore collapse onto one cached result.

Returning plain dicts (not experiment result objects) keeps the worker
boundary thin: Pareto reduction and rendering happen in the parent
process (see DESIGN.md §7), workers only ever compute numbers.
"""
from __future__ import annotations

from typing import Any, Callable

from repro.caches.column_buffer import ColumnBufferCache
from repro.common.errors import ConfigError
from repro.common.params import DRAMTiming, IntegratedDeviceParams
from repro.common.rng import make_rng, split_rng
from repro.uniproc.measurement import measure_integrated
from repro.uniproc.pipeline import processor_net_cpi
from repro.workloads.spec import get_proxy

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


#: Axis name -> (human description, value validator).  Axis *names* are
#: keyword arguments of :func:`icache_point`; a sweep spec may sweep
#: only these.
AXES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "line_bytes": ("cache line (DRAM column) size in bytes", _positive_int),
    "num_banks": ("DRAM bank count", _positive_int),
    "latency_profile": (
        "memory-technology timing profile",
        lambda value: isinstance(value, str) and value in LATENCY_PROFILES,
    ),
}


# ---------------------------------------------------------------------------
# The point function (module-level: picklable, sliceable, cacheable)
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
    rates = measure_integrated(proxy, trace_len, seed, True, params)
    cpi, utilization = processor_net_cpi(
        proxy, rates, instructions,
        split_rng(make_rng(seed), proxy.name, f"sweep-banks{num_banks}"),
        track_banks=True,
        mem_access=timing.access_cycles,
        precharge=timing.precharge_cycles,
        num_banks=num_banks,
    )
    return {
        "miss_rate": rates.icache_miss_rate,
        "cpi": proxy.base_cpi() + max(0.0, cpi - 1.0),
        "bank_utilization": utilization,
    }


#: The Pareto objectives, all minimised: misses and CPI are cost, and
#: low bank utilization means the banks retain headroom for refresh,
#: speculative writebacks and I/O traffic (Section 5.6 reads it this way).
OBJECTIVES = ("miss_rate", "cpi", "bank_utilization")


def validate_axis_value(axis: str, value: Any) -> str | None:
    """None if ``value`` is legal for ``axis``, else a short reason."""
    description, validator = AXES[axis]
    if validator(value):
        # Geometry constraints surface early, with the axis named,
        # instead of as a worker-side error mid-sweep; the column
        # buffer's own sub-block rule rejects a line shorter than one
        # sub-block.
        if axis in ("line_bytes", "num_banks"):
            try:
                params = IntegratedDeviceParams(
                    num_banks=value if axis == "num_banks" else 16,
                    column_bytes=value if axis == "line_bytes" else 512,
                )
                ColumnBufferCache(params.icache_geometry)
            except ConfigError as exc:
                return str(exc)
        return None
    if axis == "latency_profile":
        return (f"expected one of {', '.join(sorted(LATENCY_PROFILES))}, "
                f"got {value!r}")
    return f"expected a positive number for {description}, got {value!r}"


#: Fixed knobs that count work (trace references, issued instructions);
#: below 1 a point would simulate nothing and still report numbers.
COUNT_KNOBS = ("trace_len", "instructions")


def validate_fixed_value(knob: str, value: Any) -> str | None:
    """None if ``value`` is legal for the fixed knob ``knob``, else a
    short reason."""
    if knob in AXES:
        return validate_axis_value(knob, value)
    if knob in COUNT_KNOBS and not _positive_int(value):
        return f"expected a positive integer, got {value!r}"
    return None
