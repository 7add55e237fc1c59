"""``interleave_blocks`` against the frozen block-by-block oracle.

The closed-form block bounds must reproduce the oracle exactly: the
same addresses, the same write flags, and the same random-generator
state afterwards, so no proxy's later draws can shift.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import make_rng
from repro.trace.stream import ReferenceTrace, interleave_blocks
from tests.trace.reference_interleave import reference_interleave_blocks


@st.composite
def _mixes(draw):
    count = draw(st.integers(1, 4))
    # Sizes from empty through shorter than a block to many blocks long.
    sizes = draw(st.lists(st.integers(0, 90), min_size=count, max_size=count))
    weights = draw(
        st.lists(st.sampled_from((0.0, 0.2, 1.0, 3.0)),
                 min_size=count, max_size=count).filter(lambda w: sum(w) > 0)
    )
    block = draw(st.integers(1, 32))
    # Mostly lengths that are not a multiple of the block.
    length = draw(st.integers(0, 12)) * block + draw(st.integers(0, block - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return sizes, weights, block, length, seed


def _sources(sizes, seed):
    rng = np.random.default_rng(seed)
    return [
        ReferenceTrace(((i + 1) << 20) + 4 * np.arange(size, dtype=np.int64),
                       rng.random(size) < 0.3)
        for i, size in enumerate(sizes)
    ]


@settings(max_examples=300, deadline=None)
@given(mix=_mixes())
def test_matches_block_by_block_oracle(mix):
    sizes, weights, block, length, seed = mix
    sources = _sources(sizes, seed)
    rng, oracle_rng = make_rng(seed), make_rng(seed)
    mixed = interleave_blocks(sources, weights, block, length, rng)
    expected = reference_interleave_blocks(sources, weights, block, length,
                                           oracle_rng)
    assert mixed.addresses.tolist() == expected.addresses.tolist()
    assert mixed.is_write.tolist() == expected.is_write.tolist()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_cycles_a_mix_that_falls_short():
    # Two 3-reference sources in 8-reference blocks: the drawn blocks
    # hold 6 references in all, so the mix cycles up to the length.
    sources = _sources([3, 3], seed=0)
    rng, oracle_rng = make_rng(5), make_rng(5)
    mixed = interleave_blocks(sources, [1, 1], 8, 13, rng)
    expected = reference_interleave_blocks(sources, [1, 1], 8, 13, oracle_rng)
    assert len(mixed) == 13
    assert mixed.addresses.tolist() == expected.addresses.tolist()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
