"""Declarative sweep specifications: parse, validate, expand.

A sweep spec is a checked-in TOML (or JSON) document under
``artifacts/sweeps/`` declaring a *base* pipeline
(:data:`repro.sweep.points.BASES`), the axes to sweep, how to expand
them, and what to optimize::

    name = "fig7-line-bank"
    base = "figure7"
    description = "line size x bank count on the Figure 7 pipeline"
    mode = "grid"                  # cartesian product (default); "list"
                                   # zips equal-length value rows instead

    [axes]
    line_bytes = [256, 512, 1024]
    num_banks = [4, 8, 16]

    [fixed]                        # pinned non-axis knobs of the base
    benchmark = "126.gcc"
    trace_len = 40000

    [[objectives]]                 # optional; defaults come from the base
    metric = "miss_rate"
    goal = "min"

Validation is exhaustive and every failure carries a stable kebab-case
rule name (:class:`SweepSpecError.rule`) so tests and callers can match
on *what* is wrong, not on message prose — the same discipline as the
``repro check`` finding rules.  Expansion is deterministic: grid order
is row-major in axis declaration order, labels are the
``axis=value`` pairs joined with commas, and duplicate configurations
are a spec error rather than silent recomputation (across sweeps and
reruns, identical configurations collapse in the result cache instead
— see :mod:`repro.sweep.engine`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.common.errors import ReproError
from repro.sweep.points import (
    BASES,
    validate_axis_value,
    validate_fixed_value,
)

SPEC_SUFFIXES = (".toml", ".json")
DEFAULT_SWEEPS_DIR = Path("artifacts") / "sweeps"

#: Every rule a :class:`SweepSpecError` may carry.
SPEC_RULES: tuple[str, ...] = (
    "bad-spec",
    "missing-field",
    "unknown-field",
    "bad-name",
    "unknown-base",
    "bad-mode",
    "unknown-axis",
    "empty-axis",
    "bad-value",
    "empty-grid",
    "length-mismatch",
    "duplicate-configuration",
    "unknown-fixed",
    "unknown-metric",
    "bad-goal",
    "duplicate-objective",
)


class SweepSpecError(ReproError):
    """A sweep spec failed validation; ``rule`` names the failure."""

    def __init__(self, rule: str, message: str) -> None:
        assert rule in SPEC_RULES, rule
        super().__init__(f"[{rule}] {message}")
        self.rule = rule


@dataclass(frozen=True)
class Objective:
    """One Pareto objective: a metric and the direction that improves it."""

    metric: str
    goal: str  # "min" | "max"


@dataclass(frozen=True)
class SweepConfig:
    """One expanded configuration: label plus full kwargs for the base."""

    label: str
    params: dict[str, Any] = field(hash=False)


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep: base, axes, expansion mode, objectives."""

    name: str
    base: str
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    mode: str = "grid"
    fixed: dict[str, Any] = field(default_factory=dict, hash=False)
    objectives: tuple[Objective, ...] = ()
    description: str = ""

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def configs(self) -> list[SweepConfig]:
        """Expanded configurations, deterministic order, unique labels."""
        rows: list[tuple[Any, ...]]
        if self.mode == "grid":
            rows = list(itertools.product(*(values for _, values in self.axes)))
        else:  # "list": parallel rows, validated equal-length
            rows = list(zip(*(values for _, values in self.axes)))
        configs = []
        for row in rows:
            label = ",".join(
                f"{name}={value}" for name, value in zip(self.axis_names, row)
            )
            params = dict(self.fixed)
            params.update(zip(self.axis_names, row))
            configs.append(SweepConfig(label=label, params=params))
        return configs


def _require(table: dict, key: str, kind: type, rule: str = "missing-field"):
    if key not in table:
        raise SweepSpecError(rule, f"spec is missing required field {key!r}")
    value = table[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SweepSpecError(
            "bad-spec", f"field {key!r} must be {kind.__name__}, "
                        f"got {type(value).__name__}")
    return value


_KNOWN_FIELDS = frozenset(
    {"name", "base", "description", "mode", "axes", "fixed", "objectives"}
)


def parse_spec(table: dict[str, Any]) -> SweepSpec:
    """Validate a raw spec table into a :class:`SweepSpec`.

    Raises :class:`SweepSpecError` with a named rule on the first
    violation; validation order is stable (identity, base, axes,
    expansion, fixed knobs, objectives) so error output is
    deterministic.
    """
    if not isinstance(table, dict):
        raise SweepSpecError("bad-spec", "spec must be a table/object")
    unknown = sorted(set(table) - _KNOWN_FIELDS)
    if unknown:
        raise SweepSpecError(
            "unknown-field",
            f"unknown spec field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(_KNOWN_FIELDS))})")

    name = _require(table, "name", str)
    if not name or not all(c.isalnum() or c in "-_." for c in name):
        raise SweepSpecError(
            "bad-name",
            f"sweep name {name!r} must be non-empty and use only "
            f"alphanumerics, '-', '_', '.' (it names files and labels)")

    base_name = _require(table, "base", str)
    if base_name not in BASES:
        raise SweepSpecError(
            "unknown-base",
            f"base {base_name!r} is not sweepable "
            f"(known bases: {', '.join(sorted(BASES))})")
    base = BASES[base_name]

    mode = table.get("mode", "grid")
    if mode not in ("grid", "list"):
        raise SweepSpecError(
            "bad-mode", f"mode must be 'grid' or 'list', got {mode!r}")

    axes_table = _require(table, "axes", dict)
    if not axes_table:
        raise SweepSpecError("empty-grid", "spec declares no axes")
    axes: list[tuple[str, tuple[Any, ...]]] = []
    for axis_name, values in axes_table.items():
        if axis_name not in base.axes:
            raise SweepSpecError(
                "unknown-axis",
                f"axis {axis_name!r} is not an axis of base {base.name!r} "
                f"(its axes: {', '.join(base.axes)})")
        if not isinstance(values, (list, tuple)):
            raise SweepSpecError(
                "bad-value",
                f"axis {axis_name!r} must list its values, got "
                f"{type(values).__name__}")
        if not values:
            raise SweepSpecError(
                "empty-axis", f"axis {axis_name!r} has no values")
        for value in values:
            reason = validate_axis_value(axis_name, value)
            if reason is not None:
                raise SweepSpecError(
                    "bad-value", f"axis {axis_name!r}: {reason}")
        if len(set(map(repr, values))) != len(values):
            raise SweepSpecError(
                "duplicate-configuration",
                f"axis {axis_name!r} repeats a value; every grid point "
                f"must be unique")
        axes.append((axis_name, tuple(values)))

    if mode == "list":
        lengths = {name: len(values) for name, values in axes}
        if len(set(lengths.values())) > 1:
            detail = ", ".join(f"{n}={c}" for n, c in lengths.items())
            raise SweepSpecError(
                "length-mismatch",
                f"list mode zips axes row-by-row, so every axis needs "
                f"the same number of values (got {detail})")

    fixed = table.get("fixed", {})
    if not isinstance(fixed, dict):
        raise SweepSpecError("bad-spec", "fixed must be a table of knobs")
    for knob in fixed:
        if knob in axes_table:
            raise SweepSpecError(
                "unknown-fixed",
                f"{knob!r} is both a swept axis and a fixed knob")
        if knob not in base.fixed and knob not in base.axes:
            raise SweepSpecError(
                "unknown-fixed",
                f"base {base.name!r} accepts no knob {knob!r} "
                f"(fixed knobs: {', '.join(base.fixed)}; "
                f"axes: {', '.join(base.axes)})")
        reason = validate_fixed_value(knob, fixed[knob])
        if reason is not None:
            raise SweepSpecError("bad-value", f"fixed {knob!r}: {reason}")

    objectives = _parse_objectives(table.get("objectives"), base)

    spec = SweepSpec(
        name=name,
        base=base_name,
        axes=tuple(axes),
        mode=mode,
        fixed=dict(fixed),
        objectives=objectives,
        description=str(table.get("description", "")),
    )

    configs = spec.configs()
    if not configs:
        raise SweepSpecError("empty-grid", "expansion produced no "
                                           "configurations")
    seen: dict[str, str] = {}
    for config in configs:
        key = json.dumps(config.params, sort_keys=True, default=repr)
        if key in seen:
            raise SweepSpecError(
                "duplicate-configuration",
                f"configurations {seen[key]!r} and {config.label!r} are "
                f"identical; deduplicate the spec (identical points "
                f"across sweeps already collapse in the result cache)")
        seen[key] = config.label
    return spec


def _parse_objectives(raw: Any, base) -> tuple[Objective, ...]:
    if raw is None:
        return tuple(Objective(metric, goal) for metric, goal in base.objectives)
    if not isinstance(raw, list) or not raw:
        raise SweepSpecError(
            "bad-spec", "objectives must be a non-empty array of tables")
    objectives = []
    seen = set()
    for entry in raw:
        if not isinstance(entry, dict):
            raise SweepSpecError(
                "bad-spec", "each objective must be a table with "
                            "'metric' and optional 'goal'")
        metric = _require(entry, "metric", str)
        if metric not in base.metrics:
            raise SweepSpecError(
                "unknown-metric",
                f"objective metric {metric!r} is not produced by base "
                f"{base.name!r} (metrics: {', '.join(base.metrics)})")
        goal = entry.get("goal", "min")
        if goal not in ("min", "max"):
            raise SweepSpecError(
                "bad-goal", f"objective goal must be 'min' or 'max', "
                            f"got {goal!r}")
        if metric in seen:
            raise SweepSpecError(
                "duplicate-objective",
                f"metric {metric!r} appears in two objectives")
        seen.add(metric)
        objectives.append(Objective(metric, goal))
    return tuple(objectives)


def load_spec(path: Path | str) -> SweepSpec:
    """Parse and validate a spec file (TOML by default, JSON by suffix)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SweepSpecError("bad-spec", f"cannot read {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            table = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepSpecError(
                "bad-spec", f"{path} is not valid JSON: {exc}") from exc
    elif path.suffix == ".toml":
        import tomllib

        try:
            table = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SweepSpecError(
                "bad-spec", f"{path} is not valid TOML: {exc}") from exc
    else:
        raise SweepSpecError(
            "bad-spec",
            f"{path.name}: spec files use {' or '.join(SPEC_SUFFIXES)}")
    spec = parse_spec(table)
    stem = path.name[: -len(path.suffix)]
    if stem != spec.name:
        raise SweepSpecError(
            "bad-name",
            f"spec file {path.name!r} must be named after the sweep "
            f"({spec.name}{path.suffix}) so reports and specs pair up")
    return spec


def discover_specs(sweeps_dir: Path | str = DEFAULT_SWEEPS_DIR) -> list[Path]:
    """Checked-in spec files (``*.toml``) under the sweeps directory."""
    root = Path(sweeps_dir)
    if not root.is_dir():
        return []
    return sorted(root.glob("*.toml"))


def resolve_spec(ref: str, sweeps_dir: Path | str = DEFAULT_SWEEPS_DIR) -> Path:
    """A spec path from a CLI reference: literal path, or checked-in name."""
    candidate = Path(ref)
    if candidate.suffix in SPEC_SUFFIXES or candidate.exists():
        return candidate
    named = Path(sweeps_dir) / f"{ref}.toml"
    if named.exists():
        return named
    known = ", ".join(p.stem for p in discover_specs(sweeps_dir)) or "none"
    raise SweepSpecError(
        "bad-spec",
        f"no sweep spec {ref!r}: not a file, and {named} does not exist "
        f"(checked-in sweeps: {known})")
