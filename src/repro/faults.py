"""Deterministic fault injection for the supervised runner.

A :class:`FaultPlan` maps task labels (``experiment/shard``) to one of
three fault kinds, injected at the moment the supervised executor runs
the task:

- ``crash`` — the worker process exits without reporting a result
  (inline execution raises :class:`InjectedCrash` instead, since the
  supervisor and the task share a process there);
- ``hang``  — the worker sleeps until the ``--task-timeout`` watchdog
  kills it (inline execution fails immediately with a timeout-kind
  failure), so the CLI refuses a ``hang`` without a timeout;
- ``raise`` — the task raises :class:`InjectedFault`.

Plans are parsed from repeated ``--inject label=kind`` CLI flags or the
``REPRO_INJECT`` environment variable (comma-separated entries of the
same form).  Labels are matched with :func:`fnmatch.fnmatchcase`, so
``figure7/*=crash`` faults every shard of an experiment.

Everything here is a pure function of the label: no randomness, no
clocks, so every test that injects a fault reproduces exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fnmatch import fnmatchcase

FAULT_KINDS: tuple[str, ...] = ("crash", "hang", "raise")

ENV_INJECT = "REPRO_INJECT"


class InjectedFault(RuntimeError):
    """Raised by a ``raise``-kind injection (and as the inline stand-in
    for kinds that need a worker process to express)."""


class InjectedCrash(InjectedFault):
    """Inline stand-in for a worker crash: the supervisor treats it as a
    crash-kind failure, not an ordinary exception."""


class FaultPlanError(ValueError):
    """A fault-injection entry could not be parsed."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection: tasks matching ``pattern`` fail with ``kind``."""

    pattern: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} for {self.pattern!r} "
                f"(known: {', '.join(FAULT_KINDS)})"
            )
        if not self.pattern:
            raise FaultPlanError("fault pattern must be non-empty")


def parse_fault_entry(entry: str) -> FaultSpec:
    """``"label=kind"`` -> :class:`FaultSpec`.

    The *last* ``=`` separates label from kind, because labels may
    themselves contain ``=``, as sweep labels do
    (``sweep:figure7/line_bytes=256,num_banks=4=crash``).
    """
    pattern, sep, kind = entry.rpartition("=")
    if not sep or not kind:
        raise FaultPlanError(
            f"bad --inject entry {entry!r}; expected label=kind"
        )
    return FaultSpec(pattern.strip(), kind.strip())


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec`; first match wins."""

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, entries: "list[str] | tuple[str, ...]") -> "FaultPlan":
        return cls(tuple(parse_fault_entry(e) for e in entries if e.strip()))

    @classmethod
    def from_env(cls, environ: "dict[str, str] | None" = None) -> "FaultPlan":
        """Plan from ``$REPRO_INJECT`` (empty plan when unset)."""
        env = os.environ if environ is None else environ
        raw = env.get(ENV_INJECT, "")
        return cls.parse([part for part in raw.split(",") if part.strip()])

    def __bool__(self) -> bool:
        return bool(self.specs)

    def fault_for(self, label: str) -> str | None:
        """The fault kind to inject into ``label``, or ``None`` to run it
        healthy."""
        for spec in self.specs:
            if fnmatchcase(label, spec.pattern):
                return spec.kind
        return None
