"""Process-local event tallies.

The simulators report how much work they did (GSPN firings, MP ops)
through a module-level counter so the experiment runner can attribute
event counts to whichever experiment is currently executing in this
process, without threading a metrics object through every call.

Counters are per-process: a pool worker accumulates its own tallies, and
each :mod:`repro.obs` span snapshots them around its work, so a task's
``task/<label>`` span carries the task's deltas.
"""

from __future__ import annotations

from collections import Counter

_TALLY: Counter = Counter()


def add(name: str, count: int) -> None:
    """Credit ``count`` events to the counter ``name``."""
    if count:
        _TALLY[name] += count


def snapshot() -> dict[str, int]:
    """Current counter values (a copy)."""
    return dict(_TALLY)


def since(before: dict[str, int]) -> dict[str, int]:
    """Non-zero counter deltas accumulated after ``before`` was taken."""
    return {
        name: value - before.get(name, 0)
        for name, value in _TALLY.items()
        if value - before.get(name, 0)
    }
