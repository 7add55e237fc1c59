"""Memory-reference traces and synthetic access-pattern generators."""

from repro.trace.code import AliasedCallPair, CodeProfile, CodeWalker
from repro.trace.generators import (
    blocked_sweep,
    scattered_blocks,
    stencil_sweep,
    hot_cold_mix,
    pointer_chase,
    record_walk,
    strided_sweep,
)
from repro.trace.stream import (
    ReferenceTrace,
    expand_runs,
    interleave_blocks,
    interleave_round_robin,
)

__all__ = [
    "AliasedCallPair",
    "CodeProfile",
    "CodeWalker",
    "ReferenceTrace",
    "blocked_sweep",
    "expand_runs",
    "hot_cold_mix",
    "interleave_blocks",
    "interleave_round_robin",
    "pointer_chase",
    "record_walk",
    "scattered_blocks",
    "stencil_sweep",
    "strided_sweep",
]
