"""Declarative design-space exploration over the experiment registry.

A *sweep* is a checked-in TOML spec (``artifacts/sweeps/``) that names
the axes of the Figure 7 point function (:mod:`repro.sweep.points`) to
vary and the knobs to pin.  :mod:`repro.sweep.spec` validates and
expands the spec, :mod:`repro.sweep.engine` compiles each configuration
onto the supervised experiment runner (inheriting caching, span tracing
and its rule that a failed task fails the run), :mod:`repro.sweep.pareto`
reduces the results to a Pareto frontier, and :mod:`repro.sweep.report`
renders the deterministic artifact plus the auto-generated SWEEPS.md.

Drive it from the command line with ``python -m repro sweep run|report|list``.
"""

from repro.sweep.engine import ConfigResult, SweepOutcome, compile_tasks, run_sweep
from repro.sweep.pareto import (
    ParetoError,
    ParetoVerdict,
    pareto_classify,
)
from repro.sweep.points import AXES, LATENCY_PROFILES
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
    "LATENCY_PROFILES",
    "SPEC_RULES",
    "SWEEP_SCHEMA_VERSION",
    "ConfigResult",
    "ParetoError",
    "ParetoVerdict",
    "SweepConfig",
    "SweepOutcome",
    "SweepSpec",
    "SweepSpecError",
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
