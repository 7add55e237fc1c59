"""Experiment registry: what each experiment is, and how to shard it.

Each :class:`ExperimentSpec` ties a CLI experiment name to

- the function that computes it,
- the paper table/figure it reproduces and the modules it exercises
  (this drives the docs table in :mod:`repro.analysis` and the
  auto-generated EXPERIMENTS.md),
- the CLI knobs it accepts (``--trace-len``, ``--procs``) so the CLI
  can warn instead of silently ignoring a flag, and
- an optional sharding: how to split the experiment into independent
  tasks for the process pool, and how to merge the shard results back
  into exactly the object the unsharded function returns.

Shards are only valid because every experiment iterates over
independent units (one Spec benchmark, one SPLASH kernel, one bank
count) whose RNG streams are derived from per-unit constants — see the
equality tests in ``tests/runner``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.analysis.experiments import (
    BankSweepExperiment,
    CPICurveExperiment,
    CrossoverExperiment,
    MissRateExperiment,
    PAPER_SPLASH_KERNELS,
    SpecTableExperiment,
    crossover,
    figure2,
    figure7,
    figure8,
    figure11,
    figure12,
    section56,
    splash_figure,
    table1,
    table3,
    table4,
)
from repro.paperdata import PAPER_TABLE3, PAPER_TABLE4
from repro.runner import ResultCache, RunMetrics, Task, run_tasks
from repro.workloads.spec import ALL_NAMES

# -- shard merges (module-level, keep results identical to unsharded runs) --


def _merge_first(parts: list[Any]) -> Any:
    return parts[0]


def _merge_missrate(parts: list[MissRateExperiment]) -> MissRateExperiment:
    first = parts[0]
    return MissRateExperiment(
        title=first.title,
        benchmarks=[b for part in parts for b in part.benchmarks],
        columns=first.columns,
        rows={name: rates for part in parts for name, rates in part.rows.items()},
    )


def _merge_cpicurve(parts: list[CPICurveExperiment]) -> CPICurveExperiment:
    first = parts[0]
    return CPICurveExperiment(
        title=first.title,
        xs=first.xs,
        curves={name: ys for part in parts for name, ys in part.curves.items()},
        x_label=first.x_label,
    )


def _merge_spec_table(parts: list[SpecTableExperiment]) -> SpecTableExperiment:
    first = parts[0]
    return SpecTableExperiment(
        title=first.title,
        with_victim=first.with_victim,
        rows=[row for part in parts for row in part.rows],
    )


def _merge_crossover(parts: list[CrossoverExperiment]) -> CrossoverExperiment:
    first = parts[0]
    return CrossoverExperiment(
        benchmarks=[b for part in parts for b in part.benchmarks],
        mem_latencies=first.mem_latencies,
        integrated={k: v for part in parts for k, v in part.integrated.items()},
        conventional={k: v for part in parts for k, v in part.conventional.items()},
        crossover={k: v for part in parts for k, v in part.crossover.items()},
    )


def _merge_banksweep(parts: list[BankSweepExperiment]) -> BankSweepExperiment:
    first = parts[0]
    return BankSweepExperiment(
        bank_counts=[b for part in parts for b in part.bank_counts],
        cpi={k: v for part in parts for k, v in part.cpi.items()},
        utilization={k: v for part in parts for k, v in part.utilization.items()},
        benchmark=first.benchmark,
    )


def _merge_splash_list(parts: list[Any]) -> list[Any]:
    return list(parts)


# -- spec ------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: function, paper mapping, CLI knobs, sharding."""

    name: str
    fn: Callable
    paper_ref: str
    summary: str
    modules: tuple[str, ...]
    accepts: frozenset[str] = frozenset()
    # Sharding: split `shard_param` over `shard_values`, one task each.
    shard_param: str | None = None
    shard_values: tuple = ()
    shard_wrap: Callable[[Any], Any] = field(default=lambda v: (v,))
    merge: Callable[[list[Any]], Any] = _merge_first

    def tasks(self, overrides: dict[str, Any] | None = None) -> list[Task]:
        """The independent tasks this run decomposes into.

        ``overrides`` are extra kwargs (already validated against
        :attr:`accepts` plus the experiment signature) applied to every
        shard.
        """
        kwargs = dict(overrides or {})
        if self.shard_param is None:
            return [Task(self.name, "", self.fn, kwargs)]
        values = kwargs.pop(self.shard_param, None)
        if values is None:
            values = self.shard_values
        return [
            Task(self.name, str(value), self.fn,
                 {**kwargs, self.shard_param: self.shard_wrap(value)})
            for value in values
        ]

    def merge_results(self, parts: list[Any]) -> Any:
        return self.merge(parts)

    @property
    def entry_point(self) -> str:
        """Dotted name of this experiment's function, for static analysis.

        The ``deps`` check pass resolves it in the call graph, and
        :func:`repro.runner.fingerprint.slice_fingerprint` hashes the
        module slice reachable from it.
        """
        return f"{self.fn.__module__}.{self.fn.__qualname__}"


def _splash_shard(value: str) -> str:
    return value


SPECS: dict[str, ExperimentSpec] = {}


def _register(spec: ExperimentSpec) -> None:
    SPECS[spec.name] = spec


_register(ExperimentSpec(
    name="table1",
    fn=table1,
    paper_ref="Table 1 / Section 2",
    summary="SS-5 vs SS-10/61 Spec-class and Synopsys-class runtimes",
    modules=("repro.machines",),
))
_register(ExperimentSpec(
    name="crossover",
    fn=crossover,
    paper_ref="derived (Sections 5.5-5.6)",
    summary="conventional-vs-integrated break-even memory latency",
    modules=("repro.uniproc", "repro.gspn", "repro.workloads.spec"),
    accepts=frozenset({"trace_len"}),
    shard_param="benchmarks",
    shard_values=("126.gcc", "102.swim", "141.apsi"),
    merge=_merge_crossover,
))
_register(ExperimentSpec(
    name="figure2",
    fn=figure2,
    paper_ref="Figure 2 / Section 2",
    summary="load latency vs array size on the two SparcStations",
    modules=("repro.machines",),
))
_register(ExperimentSpec(
    name="figure7",
    fn=figure7,
    paper_ref="Figure 7 / Section 5.2",
    summary="I-cache miss rates, proposed column buffers vs conventional",
    modules=("repro.caches", "repro.workloads.spec", "repro.trace"),
    accepts=frozenset({"trace_len"}),
    shard_param="names",
    shard_values=tuple(ALL_NAMES),
    merge=_merge_missrate,
))
_register(ExperimentSpec(
    name="figure8",
    fn=figure8,
    paper_ref="Figure 8 / Sections 5.3-5.4",
    summary="D-cache miss rates with and without the victim cache",
    modules=("repro.caches", "repro.workloads.spec", "repro.trace"),
    accepts=frozenset({"trace_len"}),
    shard_param="names",
    shard_values=tuple(ALL_NAMES),
    merge=_merge_missrate,
))
_register(ExperimentSpec(
    name="figure11",
    fn=figure11,
    paper_ref="Figure 11 / Section 5.5",
    summary="conventional CPI vs main-memory latency",
    modules=("repro.uniproc", "repro.gspn", "repro.caches"),
    accepts=frozenset({"trace_len"}),
    shard_param="names",
    shard_values=("141.apsi", "126.gcc"),
    merge=_merge_cpicurve,
))
_register(ExperimentSpec(
    name="figure12",
    fn=figure12,
    paper_ref="Figure 12 / Section 5.5",
    summary="integrated-device CPI vs DRAM access latency",
    modules=("repro.uniproc", "repro.gspn", "repro.caches"),
    accepts=frozenset({"trace_len"}),
    shard_param="names",
    shard_values=("141.apsi", "126.gcc"),
    merge=_merge_cpicurve,
))
_register(ExperimentSpec(
    name="table3",
    fn=table3,
    paper_ref="Table 3 / Section 5.5",
    summary="Spec'95 CPI estimates without the victim cache",
    modules=("repro.uniproc", "repro.gspn", "repro.caches",
             "repro.workloads.spec"),
    accepts=frozenset({"trace_len"}),
    shard_param="names",
    shard_values=tuple(PAPER_TABLE3),
    shard_wrap=lambda v: [v],
    merge=_merge_spec_table,
))
_register(ExperimentSpec(
    name="table4",
    fn=table4,
    paper_ref="Table 4 / Section 5.5",
    summary="Spec'95 CPI and Spec-ratio estimates with the victim cache",
    modules=("repro.uniproc", "repro.gspn", "repro.caches",
             "repro.workloads.spec"),
    accepts=frozenset({"trace_len"}),
    shard_param="names",
    shard_values=tuple(PAPER_TABLE4),
    shard_wrap=lambda v: [v],
    merge=_merge_spec_table,
))
_register(ExperimentSpec(
    name="section5.6",
    fn=section56,
    paper_ref="Section 5.6",
    summary="bank-count sensitivity: CPI and bank utilization",
    modules=("repro.gspn", "repro.dram", "repro.uniproc"),
    accepts=frozenset({"trace_len"}),
    shard_param="bank_counts",
    shard_values=(2, 4, 8, 16),
    merge=_merge_banksweep,
))
# figures13-17 always shards: each task runs splash_figure(kernel_name=k),
# and the merged list is exactly what figures13_17() returns.
_register(ExperimentSpec(
    name="figures13-17",
    fn=splash_figure,
    paper_ref="Figures 13-17 / Section 6.2",
    summary="SPLASH execution times on the three multiprocessor systems",
    modules=("repro.mp", "repro.workloads.splash", "repro.coherence",
             "repro.interconnect"),
    accepts=frozenset({"procs"}),
    shard_param="kernel_name",
    shard_values=tuple(PAPER_SPLASH_KERNELS),
    shard_wrap=_splash_shard,
    merge=_merge_splash_list,
))


# CLI flag -> experiment kwarg it maps onto.
CLI_KNOBS = {"procs": "proc_counts", "trace_len": "trace_len"}


def entry_points() -> dict[str, str]:
    """Analysis roots: experiment name -> dotted entry-point function.

    The ``deps`` and ``units`` passes walk the call graph from these
    roots, one per registered experiment."""
    return {name: spec.entry_point for name, spec in SPECS.items()}


def docs_table() -> str:
    """The experiment-to-paper mapping as a markdown table."""
    lines = [
        "| experiment | paper reference | modules exercised |",
        "|---|---|---|",
    ]
    for spec in SPECS.values():
        modules = ", ".join(f"`{m}`" for m in spec.modules)
        lines.append(f"| `{spec.name}` | {spec.paper_ref} | {modules} |")
    return "\n".join(lines)


def run_experiments(
    names: Sequence[str],
    overrides: dict[str, dict[str, Any]] | None = None,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    policy: Any = None,
    on_partial: Any = None,
) -> tuple[dict[str, Any], RunMetrics]:
    """Run experiments by name through the supervised parallel runner.

    Returns ``(results, metrics)``: ``results[name]`` is exactly what
    calling the experiment function directly would return (shards are
    merged), regardless of ``jobs`` or cache state.  Shards quarantined
    by the supervisor (see ``policy`` on
    :func:`repro.runner.run_tasks`) are left out of the merge — the
    healthy shards still produce a partial result — and
    ``results[name]`` is ``None`` when *every* shard of an experiment
    was quarantined; the failures themselves are in ``metrics``.
    """
    overrides = overrides or {}
    per_spec: dict[str, list[Task]] = {}
    all_tasks: list[Task] = []
    for name in names:
        spec = SPECS[name]
        tasks = spec.tasks(overrides.get(name))
        per_spec[name] = tasks
        all_tasks.extend(tasks)
    raw, metrics = run_tasks(
        all_tasks, jobs=jobs, cache=cache, policy=policy,
        on_partial=on_partial,
    )
    results: dict[str, Any] = {}
    for name in names:
        parts = [
            raw[(name, task.shard)] for task in per_spec[name]
            if (name, task.shard) in raw
        ]
        results[name] = SPECS[name].merge_results(parts) if parts else None
    return results, metrics
