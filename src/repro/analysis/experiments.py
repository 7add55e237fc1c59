"""One function per table and figure of the paper's evaluation.

Every function returns a result object whose ``render()`` produces the
rows/series the paper reports (see EXPERIMENTS.md).  They are run
through the experiment registry (:mod:`repro.analysis.registry`), by
``python -m repro`` and by the paper checks under ``benchmarks/``
alike, so both share one result cache.

Sizes are parameterized: the defaults complete in seconds-to-minutes at
Python speed; raise ``trace_len`` (``python -m repro <name> --trace-len
N``) / ``instructions`` / kernel sizes for tighter estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.paperdata import (
    PAPER_BANK_UTILIZATION,
    PAPER_TABLE1,
    PAPER_TABLE3,
    PAPER_TABLE4,
)
from repro.analysis.render import ascii_table, percent, series_block
from repro.caches import (
    direct_mapped_miss_rate,
    set_assoc_miss_rate,
    simulate_column_buffer,
)
from repro.common.params import CacheGeometry, IntegratedDeviceParams
from repro.common.rng import make_rng, split_rng
from repro.common.units import KB
from repro.machines.models import sparcstation_5, sparcstation_10
from repro.machines.stridewalk import stride_walk_curve
from repro.machines.table1 import table1_model
from repro.mp.system import SystemKind
from repro.uniproc.measurement import measure_integrated
from repro.uniproc.pipeline import (
    conventional_cpi,
    integrated_cpi,
    processor_net_cpi,
)
from repro.workloads.spec import ALL_NAMES, get_proxy
from repro.workloads.splash import KERNELS

# ---------------------------------------------------------------------------
# Table 1 and Figure 2
# ---------------------------------------------------------------------------


@dataclass
class Table1Experiment:
    rows: list[tuple[str, float, float]]

    def render(self) -> str:
        headers = ["Machine", "Spec-class runtime (s)", "Synopsys runtime (min)",
                   "paper Synopsys (min)"]
        paper = {
            "SparcStation-5": PAPER_TABLE1["SS-5"]["synopsys_minutes"],
            "SparcStation-10/61": PAPER_TABLE1["SS-10/61"]["synopsys_minutes"],
        }
        body = [
            (name, spec, syn / 60, paper.get(name, "-"))
            for name, spec, syn in self.rows
        ]
        return "Table 1: SS-5 vs SS-10/61\n" + ascii_table(headers, body)


def table1() -> Table1Experiment:
    """SS-5 vs SS-10/61: Spec-class and Synopsys-class runtimes."""
    results = table1_model()
    return Table1Experiment(
        rows=[(r.machine, r.spec_runtime_s, r.synopsys_runtime_s) for r in results]
    )


@dataclass
class Figure2Experiment:
    sizes: list[int]
    curves: dict[str, list[float]]  # machine -> latency per size

    def render(self) -> str:
        return series_block(
            "Figure 2: load latency (ns) vs array size, stride 4 KB",
            [f"{s // 1024}KB" for s in self.sizes],
            self.curves,
            x_label="array",
        )


def figure2(stride: int = 4096) -> Figure2Experiment:
    """Load latency vs array size for the SS-5 and SS-10/61."""
    machines = {
        "SS-5": sparcstation_5(),
        "SS-10/61": sparcstation_10(),
    }
    sizes = None
    curves: dict[str, list[float]] = {}
    for name, machine in machines.items():
        points = stride_walk_curve(machine, strides=(stride,))
        sizes = [p.array_bytes for p in points]
        curves[name] = [p.latency_ns for p in points]
    return Figure2Experiment(sizes=sizes or [], curves=curves)


# ---------------------------------------------------------------------------
# Figures 7 and 8: miss rates
# ---------------------------------------------------------------------------

CONVENTIONAL_I_SIZES = (8, 16, 32, 64)  # KB, direct-mapped, 32 B lines
CONVENTIONAL_D_SIZES = (8, 16, 64, 256)  # KB


@dataclass
class MissRateExperiment:
    title: str
    benchmarks: list[str]
    columns: list[str]
    rows: dict[str, list[float]]  # benchmark -> miss rate per column

    def render(self) -> str:
        body = [
            [name] + [percent(rate) for rate in self.rows[name]]
            for name in self.benchmarks
        ]
        return f"{self.title}\n" + ascii_table(["benchmark"] + self.columns, body)


def figure7(trace_len: int = 120_000, seed: int = 1,
            names: tuple[str, ...] | None = None) -> MissRateExperiment:
    """I-cache miss rates: proposed vs conventional direct-mapped.

    ``names`` restricts the benchmark set (the runner shards the full
    sweep one benchmark per task; each benchmark's trace and caches are
    independent, so shards merge losslessly).
    """
    columns = ["proposed 8K/512B"] + [f"DM {s}K/32B" for s in CONVENTIONAL_I_SIZES]
    rows = {}
    device = IntegratedDeviceParams()
    for name in names if names is not None else ALL_NAMES:
        trace = get_proxy(name).instruction_trace(trace_len, seed)
        proposed = simulate_column_buffer(trace, device.icache_geometry)
        conv = [
            direct_mapped_miss_rate(trace.addresses, CacheGeometry(s * KB, 32, 1))
            for s in CONVENTIONAL_I_SIZES
        ]
        rows[name] = [proposed.stats.miss_rate] + conv
    return MissRateExperiment(
        "Figure 7: instruction cache miss rates", list(rows), columns, rows
    )


def figure8(trace_len: int = 120_000, seed: int = 1,
            names: tuple[str, ...] | None = None) -> MissRateExperiment:
    """D-cache miss rates: proposed (with/without victim) vs conventional."""
    columns = (
        ["proposed 16K 2-way/512B", "proposed + victim"]
        + [f"DM {s}K/32B" for s in CONVENTIONAL_D_SIZES]
        + ["2-way 16K/32B"]
    )
    rows = {}
    device = IntegratedDeviceParams()
    for name in names if names is not None else ALL_NAMES:
        trace = get_proxy(name).data_trace(trace_len, seed)
        plain = simulate_column_buffer(trace, device.dcache_geometry)
        vict = simulate_column_buffer(
            trace, device.dcache_geometry, victim=device.victim
        )
        conv = [
            direct_mapped_miss_rate(trace.addresses, CacheGeometry(s * KB, 32, 1))
            for s in CONVENTIONAL_D_SIZES
        ]
        two_way = set_assoc_miss_rate(trace.addresses, CacheGeometry(16 * KB, 32, 2))
        rows[name] = [plain.stats.miss_rate, vict.stats.miss_rate] + conv + [two_way]
    return MissRateExperiment(
        "Figure 8: data cache miss rates", list(rows), columns, rows
    )


# ---------------------------------------------------------------------------
# Figures 11 and 12: CPI vs latency
# ---------------------------------------------------------------------------


@dataclass
class CPICurveExperiment:
    title: str
    xs: list[float]
    curves: dict[str, list[float]]
    x_label: str

    def render(self) -> str:
        return series_block(self.title, self.xs, self.curves, x_label=self.x_label)


def figure11(
    mem_latencies: tuple[float, ...] = (10, 20, 30, 40, 50),
    l2_latency: float = 6.0,
    trace_len: int = 60_000,
    instructions: int = 10_000,
    names: tuple[str, ...] = ("141.apsi", "126.gcc"),
) -> CPICurveExperiment:
    """Conventional-CPU CPI vs main memory latency (apsi high, gcc low)."""
    curves: dict[str, list[float]] = {}
    for name in names:
        proxy = get_proxy(name)
        curves[name] = [
            conventional_cpi(
                proxy, l2_latency=l2_latency, mem_latency=lat,
                trace_len=trace_len, instructions=instructions,
            ).total_cpi
            for lat in mem_latencies
        ]
    return CPICurveExperiment(
        "Figure 11: conventional CPI vs memory latency (L2 = "
        f"{l2_latency} cycles)",
        list(mem_latencies),
        curves,
        x_label="mem cycles",
    )


def figure12(
    mem_latencies: tuple[float, ...] = (2, 4, 6, 8, 12, 16),
    trace_len: int = 60_000,
    instructions: int = 10_000,
    names: tuple[str, ...] = ("141.apsi", "126.gcc"),
) -> CPICurveExperiment:
    """Integrated-device CPI vs DRAM access latency (6 cycles = 30 ns)."""
    curves: dict[str, list[float]] = {}
    for name in names:
        proxy = get_proxy(name)
        curves[name] = [
            integrated_cpi(
                proxy, mem_access=lat, trace_len=trace_len,
                instructions=instructions,
            ).total_cpi
            for lat in mem_latencies
        ]
    return CPICurveExperiment(
        "Figure 12: integrated CPI vs DRAM access latency",
        list(mem_latencies),
        curves,
        x_label="DRAM cycles",
    )


# ---------------------------------------------------------------------------
# Tables 3 and 4: Spec'95 estimates
# ---------------------------------------------------------------------------


@dataclass
class SpecTableExperiment:
    title: str
    with_victim: bool
    rows: list[tuple[str, float, float, float | None]]  # name, cpu, mem, ratio

    def render(self) -> str:
        paper = PAPER_TABLE4 if self.with_victim else PAPER_TABLE3
        headers = ["benchmark", "cpu CPI", "mem CPI", "total", "Spec-ratio",
                   "paper CPI", "paper ratio"]
        body = []
        for name, cpu, mem, ratio in self.rows:
            ref = paper.get(name)
            if self.with_victim:
                paper_cpi = ref.total_cpi if ref else "-"
            else:
                paper_cpi = f"{ref.cpu_cpi}+{ref.memory_cpi}" if ref else "-"
            body.append([
                name, cpu, mem, cpu + mem,
                f"{ratio:.1f}" if ratio is not None else "-",
                paper_cpi,
                ref.spec_ratio if ref else "-",
            ])
        return f"{self.title}\n" + ascii_table(headers, body)


def _spec_table(with_victim: bool, trace_len: int, instructions: int,
                names: list[str]) -> SpecTableExperiment:
    rows = []
    for name in names:
        est = integrated_cpi(
            get_proxy(name), with_victim=with_victim,
            trace_len=trace_len, instructions=instructions,
        )
        rows.append((name, est.cpu_cpi, est.memory_cpi, est.spec_ratio))
    title = (
        "Table 4: Spec'95 estimates with victim cache"
        if with_victim
        else "Table 3: Spec'95 estimates, no victim cache"
    )
    return SpecTableExperiment(title, with_victim, rows)


def table3(trace_len: int = 100_000, instructions: int = 15_000,
           names: list[str] | None = None) -> SpecTableExperiment:
    """Spec'95 CPI estimates (cpu + memory split), no victim cache."""
    return _spec_table(False, trace_len, instructions,
                       names or list(PAPER_TABLE3))


def table4(trace_len: int = 100_000, instructions: int = 15_000,
           names: list[str] | None = None) -> SpecTableExperiment:
    """Spec'95 CPI and Spec-ratio estimates with the victim cache."""
    return _spec_table(True, trace_len, instructions,
                       names or list(PAPER_TABLE4))


@dataclass
class CrossoverExperiment:
    """Where the conventional system falls behind the integrated device."""

    benchmarks: list[str]
    mem_latencies: list[float]
    integrated: dict[str, float]  # benchmark -> integrated total CPI
    conventional: dict[str, list[float]]  # benchmark -> CPI per latency
    crossover: dict[str, float | None]  # first latency where integrated wins

    def render(self) -> str:
        headers = (
            ["benchmark", "integrated CPI"]
            + [f"conv@{int(lat)}cyc" for lat in self.mem_latencies]
            + ["crossover"]
        )
        rows = []
        for name in self.benchmarks:
            cross = self.crossover[name]
            rows.append(
                [name, self.integrated[name]]
                + self.conventional[name]
                + [f"{int(cross)} cyc" if cross is not None else "never"]
            )
        return (
            "Crossover: conventional CPI vs the integrated device\n"
            + ascii_table(headers, rows)
        )


def crossover(
    benchmarks: tuple[str, ...] = ("126.gcc", "102.swim", "141.apsi"),
    mem_latencies: tuple[float, ...] = (8, 16, 24, 40),
    trace_len: int = 60_000,
    instructions: int = 8_000,
) -> CrossoverExperiment:
    """Conventional-vs-integrated break-even memory latency (derived)."""
    integrated: dict[str, float] = {}
    conventional: dict[str, list[float]] = {}
    cross: dict[str, float | None] = {}
    for name in benchmarks:
        proxy = get_proxy(name)
        integrated[name] = integrated_cpi(
            proxy, trace_len=trace_len, instructions=instructions
        ).total_cpi
        series = [
            conventional_cpi(
                proxy, mem_latency=lat, trace_len=trace_len,
                instructions=instructions,
            ).total_cpi
            for lat in mem_latencies
        ]
        conventional[name] = series
        cross[name] = next(
            (lat for lat, cpi in zip(mem_latencies, series)
             if cpi > integrated[name]),
            None,
        )
    return CrossoverExperiment(
        list(benchmarks), list(mem_latencies), integrated, conventional, cross
    )


# ---------------------------------------------------------------------------
# Section 5.6: bank-count sensitivity
# ---------------------------------------------------------------------------


@dataclass
class BankSweepExperiment:
    bank_counts: list[int]
    cpi: dict[int, float]
    utilization: dict[int, float]  # mean bank busy fraction
    benchmark: str

    def render(self) -> str:
        headers = ["banks", "CPI", "mean bank utilization", "paper utilization"]
        body = [
            [
                banks,
                self.cpi[banks],
                percent(self.utilization[banks]),
                percent(PAPER_BANK_UTILIZATION.get(banks, float("nan")))
                if banks in PAPER_BANK_UTILIZATION
                else "-",
            ]
            for banks in self.bank_counts
        ]
        return (
            f"Section 5.6: bank-count sensitivity ({self.benchmark})\n"
            + ascii_table(headers, body)
        )


def section56(
    benchmark: str = "126.gcc",
    bank_counts: tuple[int, ...] = (2, 4, 8, 16),
    trace_len: int = 60_000,
    instructions: int = 10_000,
    seed: int = 0,
) -> BankSweepExperiment:
    """Bank-count sensitivity: CPI and bank utilization (Section 5.6)."""
    proxy = get_proxy(benchmark)
    rates = measure_integrated(proxy, trace_len, seed)
    cpi: dict[int, float] = {}
    utilization: dict[int, float] = {}
    for banks in bank_counts:
        cpi[banks], utilization[banks] = processor_net_cpi(
            proxy, rates, instructions,
            split_rng(make_rng(seed), benchmark, f"banks{banks}"),
            track_banks=True, num_banks=banks,
        )
    return BankSweepExperiment(list(bank_counts), cpi, utilization, benchmark)


# ---------------------------------------------------------------------------
# Figures 13-17: SPLASH execution times
# ---------------------------------------------------------------------------

SPLASH_FIGURES = {
    "lu": "Figure 13",
    "mp3d": "Figure 14",
    "ocean": "Figure 15",
    "water": "Figure 16",
    "pthor": "Figure 17",
}


@dataclass
class SplashExperiment:
    kernel: str
    proc_counts: list[int]
    times: dict[str, list[int]]  # system kind -> execution times
    data_set: str = ""

    def render(self) -> str:
        title = (
            f"{SPLASH_FIGURES[self.kernel]}: {self.kernel.upper()} execution time "
            f"(cycles) vs processors [{self.data_set}]"
        )
        return series_block(title, self.proc_counts, self.times, x_label="procs")


def splash_figure(
    kernel_name: str,
    proc_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    kinds: tuple[SystemKind, ...] = (
        SystemKind.INTEGRATED,
        SystemKind.INTEGRATED_NO_VICTIM,
        SystemKind.REFERENCE,
    ),
    **kernel_kwargs,
) -> SplashExperiment:
    """One SPLASH kernel's execution time vs processor count, per system.

    The per-kernel building block behind Figures 13-17: runs
    ``kernel_name`` on every requested system kind at every processor
    count and collects the simulated execution times for rendering.
    """
    kernel_cls = KERNELS[kernel_name]
    times: dict[str, list[int]] = {kind.value: [] for kind in kinds}
    data_set = ""
    for kind in kinds:
        for procs in proc_counts:
            kernel = kernel_cls(**kernel_kwargs)
            result, _ = kernel.run_on(kind, procs)
            times[kind.value].append(result.execution_time)
            data_set = kernel.description
    return SplashExperiment(kernel_name, list(proc_counts), times, data_set)
