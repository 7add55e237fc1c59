"""Sweep execution: compile configurations onto the experiment runner.

``run_sweep`` is the whole lifecycle of one sweep:

1. **compile** — every expanded :class:`~repro.sweep.spec.SweepConfig`
   becomes one :class:`repro.runner.Task` over the module-level point
   function :func:`~repro.sweep.points.icache_point`.  The task's
   experiment name is ``sweep:figure7`` (not the sweep's own name) and
   its shard is the configuration label, so the cache key depends only
   on *(entry point, parameters, slice fingerprint)*: two sweeps — or
   two runs of one sweep — sharing a configuration collapse onto a
   single cached result, and editing code outside the point's
   dependency slice invalidates nothing.
2. **fan out** — the tasks go through :func:`repro.runner.run_tasks`
   unchanged, inheriting the supervised pool: a failed configuration
   fails the sweep, the result cache lets a rerun skip finished
   configurations, and spans ride back from workers.
3. **reduce** — the metric dicts are Pareto-classified
   (:mod:`repro.sweep.pareto`) in the parent process and assembled into
   the deterministic sweep outcome the report layer renders.

Each stage runs under an ``obs`` span (``sweep/compile``, ``sweep/run``,
``sweep/reduce``) so ``--trace`` with ``--metrics-out`` breaks a
sweep's wall time down by stage next to the simulator stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.runner import ResultCache, RunMetrics, Task, run_tasks
from repro.sweep.pareto import pareto_classify
from repro.sweep.points import OBJECTIVES, icache_point
from repro.sweep.spec import SweepSpec


@dataclass(frozen=True)
class ConfigResult:
    """One configuration's outcome."""

    label: str
    params: dict[str, Any] = field(hash=False)
    metrics: dict[str, float] = field(hash=False)
    dominated: bool = False
    dominated_by: str | None = None


@dataclass
class SweepOutcome:
    """Everything one sweep run produced, pre-rendering."""

    spec: SweepSpec
    configs: list[ConfigResult]

    @property
    def frontier(self) -> list[str]:
        return [c.label for c in self.configs if not c.dominated]

    @property
    def dominated(self) -> list[ConfigResult]:
        return [c for c in self.configs if c.dominated]


#: Experiment name of every sweep task: named after the Figure 7
#: pipeline the point function runs, never after the sweep.
EXPERIMENT = "sweep:figure7"


def compile_tasks(spec: SweepSpec) -> list[Task]:
    """Registry-style tasks, one per expanded configuration."""
    return [
        Task(
            experiment=EXPERIMENT,
            shard=config.label,
            fn=icache_point,
            kwargs=dict(config.params),
        )
        for config in spec.configs()
    ]


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> tuple[SweepOutcome, RunMetrics]:
    """Run every configuration of ``spec`` and reduce the results.

    Returns ``(outcome, metrics)``.  A failed configuration raises
    :class:`repro.runner.resilience.TaskFailed`, as for registered
    experiments, so the frontier is never classified over part of the
    grid.
    """
    with obs.span("sweep/compile") as sp:
        configs = spec.configs()
        tasks = compile_tasks(spec)
        sp.add("configs", len(configs))
    with obs.span("sweep/run"):
        raw, metrics = run_tasks(tasks, jobs=jobs, cache=cache)
    with obs.span("sweep/reduce") as sp:
        settled = [(config, dict(raw[(EXPERIMENT, config.label)]))
                   for config in configs]
        verdicts = {
            v.label: v
            for v in pareto_classify(
                [(config.label, metrics_) for config, metrics_ in settled],
                OBJECTIVES,
            )
        }
        results = [
            ConfigResult(
                label=config.label,
                params=dict(config.params),
                metrics=metrics_,
                dominated=verdicts[config.label].dominated,
                dominated_by=verdicts[config.label].dominated_by,
            )
            for config, metrics_ in settled
        ]
        sp.add("dominated", sum(1 for r in results if r.dominated))
    return SweepOutcome(spec=spec, configs=results), metrics
