"""Whole-net introspection the tests check simulations against."""

from __future__ import annotations

from repro.gspn.net import PetriNet


def token_count(net: PetriNet) -> int:
    """Tokens in the initial marking."""
    return sum(net.initial_marking.values())


def is_conservative(net: PetriNet) -> bool:
    """True when every transition preserves the total token count."""
    return all(
        sum(t.inputs.values()) == sum(t.outputs.values())
        for t in net.transitions.values()
    )
