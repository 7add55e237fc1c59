"""The block-by-block ``interleave_blocks``, kept as the oracle.

:func:`reference_interleave_blocks` is the logic
:func:`repro.trace.stream.interleave_blocks` shipped before it computed
each block's bounds in closed form: one :class:`ReferenceTrace` slice
per drawn block, a running position per source, and a stop as soon as
enough references are produced.  It is kept here, in the tests only, so
``test_interleave_differential`` can require the shipped function to
give identical addresses, write flags and random-generator state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.trace.stream import ReferenceTrace


def reference_interleave_blocks(
    traces: Sequence[ReferenceTrace],
    weights: Sequence[float],
    block: int,
    length: int,
    rng: np.random.Generator,
) -> ReferenceTrace:
    if len(traces) != len(weights):
        raise ValueError("need one weight per trace")
    weights_arr = np.asarray(weights, dtype=float)
    if weights_arr.sum() <= 0:
        raise ValueError("weights must sum to a positive value")
    probs = weights_arr / weights_arr.sum()
    positions = [0] * len(traces)
    pieces: list[ReferenceTrace] = []
    produced = 0
    num_blocks = -(-length // block)
    choices = rng.choice(len(traces), size=num_blocks, p=probs)
    for choice in choices:
        source = traces[choice]
        if len(source) == 0:
            continue
        start = positions[choice] % len(source)
        end = min(start + block, len(source))
        pieces.append(source[start:end])
        positions[choice] = end % len(source)
        produced += end - start
        if produced >= length:
            break
    mixed = ReferenceTrace.concat(pieces)
    return mixed.take(length) if len(mixed) >= 1 else ReferenceTrace.empty()
