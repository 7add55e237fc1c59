import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.common.address import (
    bank_of,
    index_fields,
    line_address,
    line_index,
    set_index,
    sub_block,
    tag_of,
    vector_set_index,
    vector_tag,
)


class TestScalarHelpers:
    def test_line_address(self):
        assert line_address(0x1234, 512) == 0x1200
        assert line_address(0x1FF, 512) == 0

    def test_line_index(self):
        assert line_index(1024, 512) == 2

    def test_set_index_wraps(self):
        # 16 sets of 512 B lines: set repeats every 8 KB.
        assert set_index(0, 512, 16) == set_index(8192, 512, 16)
        assert set_index(512, 512, 16) == 1

    def test_tag_distinguishes_aliases(self):
        assert tag_of(0, 512, 16) != tag_of(8192, 512, 16)

    def test_bank_interleaving(self):
        # Banks interleave at column (512 B) granularity.
        assert bank_of(0, 512, 16) == 0
        assert bank_of(512, 512, 16) == 1
        assert bank_of(512 * 16, 512, 16) == 0

    def test_sub_block(self):
        assert sub_block(0, 512, 32) == 0
        assert sub_block(33, 512, 32) == 1
        assert sub_block(511, 512, 32) == 15


@given(st.integers(0, 2**40), st.sampled_from([32, 64, 512]), st.sampled_from([16, 256]))
def test_address_decomposition_roundtrip(addr, line, sets):
    """tag/set/offset decomposition reconstructs the line address."""
    tag = tag_of(addr, line, sets)
    idx = set_index(addr, line, sets)
    bits_line = line.bit_length() - 1
    bits_set = sets.bit_length() - 1
    rebuilt = (tag << (bits_line + bits_set)) | (idx << bits_line)
    assert rebuilt == line_address(addr, line)


@given(st.integers(0, 2**40), st.sampled_from([8, 32, 512]),
       st.sampled_from([1, 2, 16, 4096]))
def test_index_fields_match_scalar(addr, line, sets):
    """The precomputed shifts give the same set index and tag."""
    line_shift, set_mask, tag_shift = index_fields(line, sets)
    assert (addr >> line_shift) & set_mask == set_index(addr, line, sets)
    assert addr >> tag_shift == tag_of(addr, line, sets)


@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=50))
def test_vector_helpers_match_scalar(addrs):
    arr = np.asarray(addrs, dtype=np.int64)
    vec_sets = vector_set_index(arr, 512, 16)
    vec_tags = vector_tag(arr, 512, 16)
    for i, addr in enumerate(addrs):
        assert vec_sets[i] == set_index(addr, 512, 16)
        assert vec_tags[i] == tag_of(addr, 512, 16)
