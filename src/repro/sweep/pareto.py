"""Pareto-frontier reduction over sweep results.

Given every configuration's metric dict and the sweep's objectives,
classify each point as *frontier* (no other point is at least as good
on every objective and strictly better on one) or *dominated* (some
point is).  Runs in the parent process after the fan-out — workers
only compute metrics; see DESIGN.md §7 for why the reduction never
crosses the worker boundary.

The classification is deterministic: points are compared in their
expansion order, a dominated point records the *first* dominator in
that order, and ties (identical objective vectors) leave both points
on the frontier — equality dominates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.common.errors import ReproError
from repro.sweep.spec import Objective


class ParetoError(ReproError):
    """A point is missing an objective metric or has a non-finite value."""


@dataclass(frozen=True)
class ParetoVerdict:
    """One point's classification against the frontier."""

    label: str
    dominated: bool
    dominated_by: str | None = None  # first dominator in expansion order


def _oriented(metrics: Mapping[str, float], label: str,
              objectives: Sequence[Objective]) -> tuple[float, ...]:
    """The objective vector, sign-flipped so lower is always better."""
    vector = []
    for objective in objectives:
        if objective.metric not in metrics:
            raise ParetoError(
                f"point {label!r} has no metric {objective.metric!r} "
                f"(has: {', '.join(sorted(metrics))})")
        value = metrics[objective.metric]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ParetoError(
                f"point {label!r} metric {objective.metric!r} is not a "
                f"finite number: {value!r}")
        vector.append(-value if objective.goal == "max" else float(value))
    return tuple(vector)


def _dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """True when ``a`` is no worse everywhere and better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def pareto_classify(
    points: Sequence[tuple[str, Mapping[str, float]]],
    objectives: Sequence[Objective],
) -> list[ParetoVerdict]:
    """Classify ``(label, metrics)`` points against the objectives.

    Returns one verdict per point, in input order.  With a single
    objective this degenerates to "is it the minimum" (the frontier is
    every point tied for best); with zero points it returns an empty
    list; and when one point dominates every other, the frontier is
    exactly that point — the degenerate all-dominated case.
    """
    if not objectives:
        raise ParetoError("no objectives to reduce over")
    vectors = [
        _oriented(metrics, label, objectives) for label, metrics in points
    ]
    verdicts = []
    for i, (label, _) in enumerate(points):
        dominated_by = next(
            (
                points[j][0]
                for j in range(len(points))
                if j != i and _dominates(vectors[j], vectors[i])
            ),
            None,
        )
        verdicts.append(ParetoVerdict(
            label=label,
            dominated=dominated_by is not None,
            dominated_by=dominated_by,
        ))
    return verdicts
