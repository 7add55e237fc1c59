import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.dram.directory import (
    BROADCAST_POINTER,
    MAX_NODE_ID,
    DirectoryEntry,
    DirState,
)


class TestEncoding:
    def test_fits_in_14_bits(self):
        entry = DirectoryEntry(DirState.SHARED_BROADCAST, BROADCAST_POINTER)
        assert entry.encode() < (1 << 14)

    @settings(max_examples=50, deadline=None)
    @given(
        state=st.sampled_from(list(DirState)),
        pointer=st.integers(0, BROADCAST_POINTER),
    )
    def test_roundtrip(self, state, pointer):
        entry = DirectoryEntry(state, pointer)
        assert DirectoryEntry.decode(entry.encode()) == entry

    def test_rejects_oversized_pointer(self):
        with pytest.raises(ConfigError):
            DirectoryEntry(DirState.SHARED, BROADCAST_POINTER + 1)

    def test_decode_rejects_oversized_bits(self):
        with pytest.raises(ConfigError):
            DirectoryEntry.decode(1 << 14)

    def test_node_id_space_supports_thousands_of_nodes(self):
        # 12 pointer bits address 4094 nodes plus the broadcast marker.
        assert MAX_NODE_ID == 4094
