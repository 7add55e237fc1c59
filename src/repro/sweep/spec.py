"""Declarative sweep specifications: parse, validate, expand.

A sweep spec is a checked-in TOML document under ``artifacts/sweeps/``
naming the axes of :func:`repro.sweep.points.icache_point` to sweep
and the knobs to pin; every configuration is a point of the grid::

    name = "fig7-line-bank"
    description = "line size x bank count on the Figure 7 pipeline"

    [axes]                         # cartesian product, row-major
    line_bytes = [256, 512, 1024]
    num_banks = [4, 8, 16]

    [fixed]                        # pinned non-axis knobs of the point
    benchmark = "126.gcc"
    trace_len = 40000

Validation is exhaustive and every failure carries a stable kebab-case
rule name (:class:`SweepSpecError.rule`) so tests and callers can match
on *what* is wrong, not on message prose — the same discipline as the
``repro check`` finding rules.  Expansion is deterministic: grid order
is row-major in axis declaration order, labels are the
``axis=value`` pairs joined with commas, and a repeated axis value is
a spec error rather than silent recomputation.  Importing
:mod:`repro.sweep` registers every spec under :data:`SWEEPS_DIR` as the
experiment ``sweep:<name>``, one shard per configuration.
"""

from __future__ import annotations

import inspect
import itertools
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.common.errors import ReproError
from repro.sweep.points import (
    AXES,
    icache_point,
    validate_axis_value,
    validate_fixed_value,
)

#: Where the specs and their report artifacts sit, relative to a checkout.
DEFAULT_SWEEPS_DIR = Path("artifacts") / "sweeps"
#: The checked-in specs, found from the source tree (``src/repro/sweep/``),
#: not from the working directory.
SWEEPS_DIR = Path(__file__).resolve().parents[3] / DEFAULT_SWEEPS_DIR

#: Every rule a :class:`SweepSpecError` may carry.
SPEC_RULES: tuple[str, ...] = (
    "bad-spec",
    "missing-field",
    "unknown-field",
    "bad-name",
    "unknown-axis",
    "empty-axis",
    "bad-value",
    "empty-grid",
    "duplicate-configuration",
    "unknown-fixed",
)

#: Non-axis keyword arguments of the point function a spec may pin.
_FIXED_KNOBS = tuple(
    name for name in inspect.signature(icache_point).parameters
    if name not in AXES
)


class SweepSpecError(ReproError):
    """A sweep spec failed validation; ``rule`` names the failure."""

    def __init__(self, rule: str, message: str) -> None:
        assert rule in SPEC_RULES, rule
        super().__init__(f"[{rule}] {message}")
        self.rule = rule
        self.detail = message


@dataclass(frozen=True)
class SweepConfig:
    """One expanded configuration: label plus full point kwargs."""

    label: str
    params: dict[str, Any] = field(hash=False)


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep: axes and fixed knobs of the point function."""

    name: str
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    fixed: dict[str, Any] = field(default_factory=dict, hash=False)
    description: str = ""

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def configs(self) -> list[SweepConfig]:
        """The grid's configurations, row-major, unique labels."""
        configs = []
        for row in itertools.product(*(values for _, values in self.axes)):
            label = ",".join(
                f"{name}={value}" for name, value in zip(self.axis_names, row)
            )
            params = dict(self.fixed)
            params.update(zip(self.axis_names, row))
            configs.append(SweepConfig(label=label, params=params))
        return configs


def _require(table: dict, key: str, kind: type):
    if key not in table:
        raise SweepSpecError(
            "missing-field", f"spec is missing required field {key!r}")
    value = table[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SweepSpecError(
            "bad-spec", f"field {key!r} must be {kind.__name__}, "
                        f"got {type(value).__name__}")
    return value


_KNOWN_FIELDS = frozenset({"name", "description", "axes", "fixed"})


def parse_spec(table: dict[str, Any]) -> SweepSpec:
    """Validate a raw spec table into a :class:`SweepSpec`.

    Raises :class:`SweepSpecError` with a named rule on the first
    violation; validation order is stable (identity, axes, fixed
    knobs) so error output is deterministic.  Every axis value is
    legal and unique, so the grid is non-empty and free of duplicate
    configurations by construction.
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

    axes_table = _require(table, "axes", dict)
    if not axes_table:
        raise SweepSpecError("empty-grid", "spec declares no axes")
    axes: list[tuple[str, tuple[Any, ...]]] = []
    for axis_name, values in axes_table.items():
        if axis_name not in AXES:
            raise SweepSpecError(
                "unknown-axis",
                f"axis {axis_name!r} is not a sweep axis "
                f"(axes: {', '.join(AXES)})")
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

    fixed = table.get("fixed", {})
    if not isinstance(fixed, dict):
        raise SweepSpecError("bad-spec", "fixed must be a table of knobs")
    for knob in fixed:
        if knob in axes_table:
            raise SweepSpecError(
                "unknown-fixed",
                f"{knob!r} is both a swept axis and a fixed knob")
        if knob not in _FIXED_KNOBS and knob not in AXES:
            raise SweepSpecError(
                "unknown-fixed",
                f"the sweep point accepts no knob {knob!r} "
                f"(fixed knobs: {', '.join(_FIXED_KNOBS)}; "
                f"axes: {', '.join(AXES)})")
        reason = validate_fixed_value(knob, fixed[knob])
        if reason is not None:
            raise SweepSpecError("bad-value", f"fixed {knob!r}: {reason}")

    return SweepSpec(
        name=name,
        axes=tuple(axes),
        fixed=dict(fixed),
        description=str(table.get("description", "")),
    )


def load_spec(path: Path | str) -> SweepSpec:
    """Parse and validate a TOML spec file."""
    path = Path(path)
    if path.suffix != ".toml":
        raise SweepSpecError(
            "bad-spec", f"{path.name}: spec files use .toml")
    try:
        text = path.read_text()
    except OSError as exc:
        raise SweepSpecError("bad-spec", f"cannot read {path}: {exc}") from exc
    try:
        table = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SweepSpecError(
            "bad-spec", f"{path} is not valid TOML: {exc}") from exc
    try:
        spec = parse_spec(table)
    except SweepSpecError as exc:
        raise SweepSpecError(exc.rule, f"{path}: {exc.detail}") from None
    if path.stem != spec.name:
        raise SweepSpecError(
            "bad-name",
            f"spec file {path} must be named after the sweep "
            f"({spec.name}.toml) so reports and specs pair up")
    return spec


def discover_specs(sweeps_dir: Path | str = SWEEPS_DIR) -> list[Path]:
    """Checked-in spec files (``*.toml``) under the sweeps directory."""
    root = Path(sweeps_dir)
    if not root.is_dir():
        return []
    return sorted(root.glob("*.toml"))
