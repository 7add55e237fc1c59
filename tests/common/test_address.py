from hypothesis import given
from hypothesis import strategies as st

from repro.common.address import bank_of, index_fields


def _set_and_tag(addr, line_bytes, num_sets):
    line_shift, set_mask, tag_shift = index_fields(line_bytes, num_sets)
    return (addr >> line_shift) & set_mask, addr >> tag_shift


class TestScalarHelpers:
    def test_set_index_wraps(self):
        # 16 sets of 512 B lines: set repeats every 8 KB.
        assert _set_and_tag(0, 512, 16)[0] == _set_and_tag(8192, 512, 16)[0]
        assert _set_and_tag(512, 512, 16)[0] == 1

    def test_tag_distinguishes_aliases(self):
        assert _set_and_tag(0, 512, 16)[1] != _set_and_tag(8192, 512, 16)[1]

    def test_bank_interleaving(self):
        # Banks interleave at column (512 B) granularity.
        assert bank_of(0, 512, 16) == 0
        assert bank_of(512, 512, 16) == 1
        assert bank_of(512 * 16, 512, 16) == 0


@given(st.integers(0, 2**40), st.sampled_from([32, 64, 512]), st.sampled_from([16, 256]))
def test_address_decomposition_roundtrip(addr, line, sets):
    """tag/set/offset decomposition reconstructs the line address."""
    line_shift, _, tag_shift = index_fields(line, sets)
    idx, tag = _set_and_tag(addr, line, sets)
    rebuilt = (tag << tag_shift) | (idx << line_shift)
    assert rebuilt == addr & ~(line - 1)


@given(st.integers(0, 2**40), st.sampled_from([8, 32, 512]),
       st.sampled_from([1, 2, 16, 4096]))
def test_index_fields_match_scalar(addr, line, sets):
    """The precomputed shifts give the arithmetic set index and tag."""
    assert _set_and_tag(addr, line, sets) == \
        ((addr // line) % sets, addr // (line * sets))
