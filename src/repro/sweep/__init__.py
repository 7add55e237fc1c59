"""Declarative design-space exploration over the experiment registry.

A *sweep* is a checked-in TOML/JSON spec (``artifacts/sweeps/``) that
names a base pipeline (:mod:`repro.sweep.points`), the axes to vary,
and the objectives to optimise.  :mod:`repro.sweep.spec` validates and
expands the spec, :mod:`repro.sweep.engine` compiles each configuration
onto the supervised experiment runner (inheriting caching, quarantine
and span tracing), :mod:`repro.sweep.pareto` reduces the results to a
Pareto frontier, and :mod:`repro.sweep.report` renders the
deterministic artifact plus the auto-generated SWEEPS.md.

Drive it from the command line with ``python -m repro sweep run|report|list``.
"""

from repro.sweep.engine import ConfigResult, SweepOutcome, compile_tasks, run_sweep
from repro.sweep.pareto import (
    ParetoError,
    ParetoVerdict,
    pareto_classify,
)
from repro.sweep.points import AXES, BASES, LATENCY_PROFILES, base_entry_points
from repro.sweep.report import (
    SWEEP_SCHEMA_VERSION,
    build_sweep_artifact,
    check_sweeps_drift,
    generate_sweeps_md,
    load_sweep_artifact,
    spec_digest,
    write_sweep_artifact,
)
from repro.sweep.spec import (
    SPEC_RULES,
    Objective,
    SweepConfig,
    SweepSpec,
    SweepSpecError,
    discover_specs,
    load_spec,
    parse_spec,
    resolve_spec,
)

__all__ = [
    "AXES",
    "BASES",
    "LATENCY_PROFILES",
    "SPEC_RULES",
    "SWEEP_SCHEMA_VERSION",
    "ConfigResult",
    "Objective",
    "ParetoError",
    "ParetoVerdict",
    "SweepConfig",
    "SweepOutcome",
    "SweepSpec",
    "SweepSpecError",
    "base_entry_points",
    "build_sweep_artifact",
    "check_sweeps_drift",
    "compile_tasks",
    "discover_specs",
    "generate_sweeps_md",
    "load_spec",
    "load_sweep_artifact",
    "pareto_classify",
    "parse_spec",
    "resolve_spec",
    "run_sweep",
    "spec_digest",
    "write_sweep_artifact",
]
