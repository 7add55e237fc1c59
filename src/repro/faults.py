"""Deterministic fault injection for the supervised runner.

A :class:`FaultPlan` maps task labels (``experiment/shard``) to one of
four fault kinds, injected at the moment the supervised executor runs
the task:

- ``crash``   — the worker process exits without reporting a result
  (inline execution raises :class:`InjectedCrash` instead, since the
  supervisor and the task share a process there);
- ``hang``    — the worker sleeps until the watchdog kills it (inline
  execution fails immediately with a timeout-kind failure);
- ``raise``   — the task raises :class:`InjectedFault`;
- ``corrupt`` — the task completes but its result payload is flipped
  after the integrity digest is computed, so the supervisor's checksum
  verification must catch it.

Plans are parsed from repeated ``--inject label=kind[:times]`` CLI
flags or the ``REPRO_INJECT`` environment variable (comma-separated
entries of the same form).  ``times`` bounds how many attempts fail
(``label=crash:1`` crashes the first attempt only, so a retry
succeeds); without it every attempt fails.  Labels are matched with
:func:`fnmatch.fnmatchcase`, so ``figure7/*=crash`` faults every shard
of an experiment.

Everything here is a pure function of (label, attempt number): no
randomness, no clocks, so every test that injects a fault reproduces
exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fnmatch import fnmatchcase

FAULT_KINDS: tuple[str, ...] = ("crash", "hang", "raise", "corrupt")

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
    """One injection: tasks matching ``pattern`` fail with ``kind``.

    ``times`` is the number of leading attempts that fail; ``None``
    means every attempt (the task can never succeed).
    """

    pattern: str
    kind: str
    times: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} for {self.pattern!r} "
                f"(known: {', '.join(FAULT_KINDS)})"
            )
        if not self.pattern:
            raise FaultPlanError("fault pattern must be non-empty")
        if self.times is not None and self.times < 1:
            raise FaultPlanError(
                f"fault times must be >= 1, got {self.times} "
                f"for {self.pattern!r}"
            )

    def applies(self, label: str, attempt: int) -> bool:
        """Does this spec fault ``label``'s ``attempt`` (1-based)?"""
        if not fnmatchcase(label, self.pattern):
            return False
        return self.times is None or attempt <= self.times


def parse_fault_entry(entry: str) -> FaultSpec:
    """``"label=kind[:times]"`` -> :class:`FaultSpec`.

    The *last* ``=`` separates label from kind, because labels may
    themselves contain ``=``, as sweep labels do
    (``sweep:figure7/line_bytes=256,num_banks=4=crash``).
    """
    pattern, sep, rest = entry.rpartition("=")
    if not sep or not rest:
        raise FaultPlanError(
            f"bad --inject entry {entry!r}; expected label=kind[:times]"
        )
    kind, sep, times_text = rest.partition(":")
    times: int | None = None
    if sep:
        try:
            times = int(times_text)
        except ValueError:
            raise FaultPlanError(
                f"bad attempt count {times_text!r} in {entry!r}"
            ) from None
    return FaultSpec(pattern.strip(), kind.strip(), times)


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

    def fault_for(self, label: str, attempt: int) -> str | None:
        """The fault kind to inject into ``label``'s ``attempt``
        (1-based), or ``None`` to run it healthy."""
        for spec in self.specs:
            if spec.applies(label, attempt):
                return spec.kind
        return None


def corrupt_payload(payload: bytes) -> bytes:
    """Deterministically damage a result payload (for ``corrupt``
    injections): flip every bit of the first byte."""
    if not payload:
        return b"\xff"
    return bytes([payload[0] ^ 0xFF]) + payload[1:]
