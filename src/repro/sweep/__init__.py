"""Declarative design-space exploration, registered as experiments.

A *sweep* is a checked-in TOML spec (``artifacts/sweeps/``) that names
the axes of the Figure 7 point function (:mod:`repro.sweep.points`) to
vary and the knobs to pin.  :mod:`repro.sweep.spec` validates and
expands the spec, :mod:`repro.sweep.pareto` reduces the results to a
Pareto frontier, and :mod:`repro.sweep.report` builds the deterministic
artifact and renders the auto-generated SWEEPS.md.

Importing this package registers every checked-in spec as the
experiment ``sweep:<name>`` in :data:`repro.analysis.registry.SPECS`,
one shard per configuration, so a sweep runs like any experiment::

    python -m repro sweep:fig7-line-bank --jobs 4
    python -m repro list                 # the paper's experiments, then the sweeps
    python -m repro docs                 # also rewrites each sweep artifact and SWEEPS.md

The registry never imports this package (it sits in every experiment's
dependency slice); the CLI, the docs step and the ``deps`` check pass
do, and ``repro all`` runs only the paper's experiments
(:data:`repro.analysis.registry.PAPER`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.registry import SPECS, ExperimentSpec
from repro.common.errors import ConfigError
from repro.runner import Task
from repro.sweep.pareto import ParetoError, ParetoVerdict, pareto_classify
from repro.sweep.points import AXES, LATENCY_PROFILES, icache_point
from repro.sweep.report import (
    SWEEP_SCHEMA_VERSION,
    SweepReport,
    build_sweep_artifact,
    check_sweeps_drift,
    generate_sweeps_md,
    spec_digest,
)
from repro.sweep.spec import (
    SPEC_RULES,
    SWEEPS_DIR,
    SweepConfig,
    SweepSpec,
    SweepSpecError,
    discover_specs,
    load_spec,
    parse_spec,
)


def _merge(spec: SweepSpec,
           parts: Sequence[Mapping[str, float]]) -> SweepReport:
    return SweepReport(build_sweep_artifact(spec, parts))


@dataclass(frozen=True)
class SweepExperiment(ExperimentSpec):
    """A sweep as a registered experiment: one shard per configuration,
    each running :func:`~repro.sweep.points.icache_point` with that
    configuration's full parameters."""

    sweep: SweepSpec | None = None

    def tasks(self, overrides: dict[str, Any] | None = None) -> list[Task]:
        """One task per configuration.  A sweep's spec pins every
        parameter, so it takes no overrides."""
        if overrides:
            raise ConfigError(
                f"{self.name} takes no overrides, got {sorted(overrides)}; "
                f"edit its spec instead")
        return [Task(self.name, config.label, self.fn, dict(config.params))
                for config in self.sweep.configs()]


def sweep_experiment(spec: SweepSpec) -> SweepExperiment:
    """The experiment ``sweep:<name>`` for a validated spec."""
    return SweepExperiment(
        name=f"sweep:{spec.name}",
        fn=icache_point,
        paper_ref="Figure 7 design space",
        summary=f"{spec.description} ({len(spec.configs())} configurations)",
        modules=("repro.sweep", "repro.uniproc", "repro.caches"),
        merge=partial(_merge, spec),
        sweep=spec,
    )


def register_sweeps(sweeps_dir: Path | str = SWEEPS_DIR) -> None:
    """Register every spec under ``sweeps_dir`` as ``sweep:<name>``.  A
    malformed spec raises :class:`SweepSpecError` naming its file."""
    for path in discover_specs(sweeps_dir):
        experiment = sweep_experiment(load_spec(path))
        SPECS[experiment.name] = experiment


register_sweeps()

__all__ = [
    "AXES",
    "LATENCY_PROFILES",
    "SPEC_RULES",
    "SWEEPS_DIR",
    "SWEEP_SCHEMA_VERSION",
    "ParetoError",
    "ParetoVerdict",
    "SweepConfig",
    "SweepExperiment",
    "SweepReport",
    "SweepSpec",
    "SweepSpecError",
    "build_sweep_artifact",
    "check_sweeps_drift",
    "discover_specs",
    "generate_sweeps_md",
    "load_spec",
    "pareto_classify",
    "parse_spec",
    "register_sweeps",
    "spec_digest",
    "sweep_experiment",
]
