"""Generalized Stochastic Petri Net structure.

The paper evaluates its processor and memory models with GSPNs in the
style of Marsan & Conti [23]: places hold tokens, *immediate* transitions
fire in zero time with probabilistic conflict resolution by weight,
*deterministic* transitions fire a fixed delay after becoming enabled,
and *exponential* transitions fire after a memoryless random delay.
Inhibitor arcs disable a transition while a place holds too many tokens.

This module defines the net structure; :mod:`repro.gspn.sim` provides the
Monte-Carlo evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.common.errors import ConfigError


class TransitionKind(Enum):
    IMMEDIATE = "immediate"
    DETERMINISTIC = "deterministic"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class Transition:
    """One transition with its arcs.

    ``param`` is the weight (immediate), delay (deterministic) or rate
    (exponential).  ``inputs``/``outputs`` map place names to arc
    multiplicities; ``inhibitors`` maps place names to thresholds — the
    transition is disabled while ``marking[place] >= threshold``.
    """

    name: str
    kind: TransitionKind
    param: float
    inputs: dict[str, int] = field(default_factory=dict)
    outputs: dict[str, int] = field(default_factory=dict)
    inhibitors: dict[str, int] = field(default_factory=dict)
    priority: int = 0  # among immediates: higher fires first

    def __post_init__(self) -> None:
        # NaN fails every comparison, so `param <= 0` alone would let a
        # NaN weight/rate/delay through and poison conflict resolution.
        if not math.isfinite(self.param) or (
            self.param <= 0
            and not (
                self.kind is TransitionKind.DETERMINISTIC and self.param == 0
            )
        ):
            raise ConfigError(
                f"transition {self.name}: param must be positive and finite"
            )
        for mult in list(self.inputs.values()) + list(self.outputs.values()):
            if mult < 1:
                raise ConfigError(f"transition {self.name}: arc multiplicity >= 1")
        for threshold in self.inhibitors.values():
            if threshold < 1:
                raise ConfigError(f"transition {self.name}: inhibitor threshold >= 1")


class PetriNet:
    """A GSPN under construction.

    Places are created with :meth:`place`; transitions with
    :meth:`immediate`, :meth:`deterministic` and :meth:`exponential`.
    The builder validates that every arc references a declared place.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.initial_marking: dict[str, int] = {}
        self.transitions: dict[str, Transition] = {}

    # -- construction -----------------------------------------------------

    def place(self, name: str, tokens: int = 0) -> str:
        if name in self.initial_marking:
            raise ConfigError(f"duplicate place {name}")
        if tokens < 0:
            raise ConfigError(f"place {name}: negative initial marking")
        self.initial_marking[name] = tokens
        return name

    def _add(self, transition: Transition) -> None:
        if transition.name in self.transitions:
            raise ConfigError(f"duplicate transition {transition.name}")
        for place in (
            list(transition.inputs)
            + list(transition.outputs)
            + list(transition.inhibitors)
        ):
            if place not in self.initial_marking:
                raise ConfigError(
                    f"transition {transition.name} references unknown place {place}"
                )
        self.transitions[transition.name] = transition

    def immediate(
        self,
        name: str,
        inputs: dict[str, int],
        outputs: dict[str, int] | None = None,
        weight: float = 1.0,
        priority: int = 0,
        inhibitors: dict[str, int] | None = None,
    ) -> str:
        self._add(
            Transition(
                name,
                TransitionKind.IMMEDIATE,
                weight,
                dict(inputs),
                dict(outputs or {}),
                dict(inhibitors or {}),
                priority,
            )
        )
        return name

    def deterministic(
        self,
        name: str,
        inputs: dict[str, int],
        outputs: dict[str, int] | None = None,
        delay: float = 1.0,
        inhibitors: dict[str, int] | None = None,
    ) -> str:
        self._add(
            Transition(
                name,
                TransitionKind.DETERMINISTIC,
                delay,
                dict(inputs),
                dict(outputs or {}),
                dict(inhibitors or {}),
            )
        )
        return name

    def exponential(
        self,
        name: str,
        inputs: dict[str, int],
        outputs: dict[str, int] | None = None,
        rate: float = 1.0,
        inhibitors: dict[str, int] | None = None,
    ) -> str:
        self._add(
            Transition(
                name,
                TransitionKind.EXPONENTIAL,
                rate,
                dict(inputs),
                dict(outputs or {}),
                dict(inhibitors or {}),
            )
        )
        return name

    # -- introspection ----------------------------------------------------

    @property
    def places(self) -> list[str]:
        return list(self.initial_marking)

    def validate(self) -> None:
        """Structural sanity checks beyond per-arc validation."""
        if not self.transitions:
            raise ConfigError(f"net {self.name} has no transitions")
        for transition in self.transitions.values():
            if not transition.inputs:
                raise ConfigError(
                    f"transition {transition.name} has no input arcs; "
                    "source transitions are not supported"
                )
