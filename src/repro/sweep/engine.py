"""Sweep execution: compile configurations onto the experiment runner.

``run_sweep`` is the whole lifecycle of one sweep:

1. **compile** — every expanded :class:`~repro.sweep.spec.SweepConfig`
   becomes one :class:`repro.runner.Task` over the base's module-level
   point function.  The task's experiment name is ``sweep:<base>`` (not
   the sweep's own name) and its shard is the configuration label, so
   the cache key depends only on *(base entry point, parameters, slice
   fingerprint)*: two sweeps — or two runs of one sweep — sharing a
   configuration collapse onto a single cached result, and editing code
   outside the base's dependency slice invalidates nothing.
2. **fan out** — the tasks go through :func:`repro.runner.run_tasks`
   unchanged, inheriting the supervised pool: timeouts, quarantine,
   fault injection, the fingerprint-keyed journal behind ``--resume``,
   and span transport back from workers.
3. **reduce** — surviving metric dicts are Pareto-classified
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
from repro.sweep.points import BASES
from repro.sweep.spec import SweepConfig, SweepSpec


@dataclass(frozen=True)
class ConfigResult:
    """One configuration's settled outcome."""

    label: str
    params: dict[str, Any] = field(hash=False)
    metrics: dict[str, float] = field(hash=False)  # empty if quarantined
    dominated: bool = False
    dominated_by: str | None = None


@dataclass
class SweepOutcome:
    """Everything one sweep run produced, pre-rendering."""

    spec: SweepSpec
    configs: list[ConfigResult]
    failed: list[str]  # labels of quarantined configurations

    @property
    def frontier(self) -> list[str]:
        return [c.label for c in self.configs if not c.dominated]

    @property
    def dominated(self) -> list[ConfigResult]:
        return [c for c in self.configs if c.dominated]


def compile_tasks(spec: SweepSpec) -> list[Task]:
    """Registry-style tasks, one per expanded configuration."""
    base = BASES[spec.base]
    return [
        Task(
            experiment=f"sweep:{spec.base}",
            shard=config.label,
            fn=base.fn,
            kwargs=dict(config.params),
        )
        for config in spec.configs()
    ]


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    policy: Any = None,
    faults: Any = None,
    journal: Any = None,
    resume: bool = False,
    on_partial: Any = None,
) -> tuple[SweepOutcome, RunMetrics]:
    """Run every configuration of ``spec`` and reduce the results.

    Returns ``(outcome, metrics)``.  Quarantined configurations (the
    supervised pool gave them up) appear in
    ``outcome.failed`` with empty metrics and are excluded from the
    Pareto classification; the per-task failure records live in
    ``metrics`` exactly as for registered experiments.
    """
    with obs.span("sweep/compile") as sp:
        configs = spec.configs()
        tasks = compile_tasks(spec)
        sp.add("configs", len(configs))
    with obs.span("sweep/run"):
        raw, metrics = run_tasks(
            tasks, jobs=jobs, cache=cache, policy=policy, faults=faults,
            journal=journal, resume=resume, on_partial=on_partial,
        )
    with obs.span("sweep/reduce") as sp:
        settled: list[tuple[SweepConfig, dict[str, float]]] = []
        failed: list[str] = []
        for config in configs:
            slot = (f"sweep:{spec.base}", config.label)
            if slot in raw:
                settled.append((config, dict(raw[slot])))
            else:
                failed.append(config.label)
        verdicts = {
            v.label: v
            for v in pareto_classify(
                [(config.label, metrics_) for config, metrics_ in settled],
                spec.objectives,
            )
        } if settled else {}
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
    return SweepOutcome(spec=spec, configs=results, failed=failed), metrics
