import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.coherence.protocol import BlockEntry, BlockState, Directory
from tests.mp.reference_mp import ReferenceDirectory


class TestBlockEntry:
    def test_default_is_unowned(self):
        entry = BlockEntry()
        entry.check()
        assert entry.state is BlockState.UNOWNED

    def test_invariant_violations_detected(self):
        with pytest.raises(ProtocolError):
            BlockEntry(state=BlockState.UNOWNED, sharers={1}).check()
        with pytest.raises(ProtocolError):
            BlockEntry(state=BlockState.SHARED, sharers=set()).check()
        with pytest.raises(ProtocolError):
            BlockEntry(state=BlockState.EXCLUSIVE, owner=None).check()
        with pytest.raises(ProtocolError):
            BlockEntry(state=BlockState.EXCLUSIVE, owner=1, sharers={2}).check()


class TestDirectoryTransitions:
    def test_remote_read_adds_sharer(self):
        directory = Directory()
        directory.record_read(0x100, requester=2, home=0)
        entry = directory.entry(0x100)
        assert entry.state is BlockState.SHARED
        assert entry.sharers == {2}

    def test_home_read_leaves_unowned(self):
        directory = Directory()
        directory.record_read(0x100, requester=0, home=0)
        assert directory.entry(0x100).state is BlockState.UNOWNED

    def test_remote_write_takes_exclusive(self):
        directory = Directory()
        directory.record_read(0x100, requester=1, home=0)
        directory.record_read(0x100, requester=2, home=0)
        victims = directory.record_write(0x100, requester=3, home=0)
        assert victims == {1, 2}
        entry = directory.entry(0x100)
        assert entry.state is BlockState.EXCLUSIVE
        assert entry.owner == 3

    def test_home_write_invalidates_and_returns_to_memory(self):
        directory = Directory()
        directory.record_read(0x100, requester=1, home=0)
        victims = directory.record_write(0x100, requester=0, home=0)
        assert victims == {1}
        assert directory.entry(0x100).state is BlockState.UNOWNED

    def test_read_of_exclusive_block_recalls(self):
        directory = Directory()
        directory.record_write(0x100, requester=1, home=0)
        directory.record_read(0x100, requester=2, home=0)
        entry = directory.entry(0x100)
        assert entry.state is BlockState.SHARED
        assert entry.sharers == {1, 2}
        assert directory.stats.recalls == 1
        assert directory.stats.writebacks == 1

    def test_owner_rewrite_has_no_victims(self):
        directory = Directory()
        directory.record_write(0x100, requester=1, home=0)
        assert directory.record_write(0x100, requester=1, home=0) == set()

    def test_eviction_of_shared_copy(self):
        directory = Directory()
        directory.record_read(0x100, requester=1, home=0)
        directory.record_read(0x100, requester=2, home=0)
        directory.record_eviction(0x100, node=1)
        assert directory.entry(0x100).sharers == {2}
        directory.record_eviction(0x100, node=2)
        assert directory.entry(0x100).state is BlockState.UNOWNED

    def test_eviction_of_exclusive_writes_back(self):
        directory = Directory()
        directory.record_write(0x100, requester=1, home=0)
        directory.record_eviction(0x100, node=1)
        assert directory.entry(0x100).state is BlockState.UNOWNED
        assert directory.stats.writebacks == 1

    def test_block_granularity_is_32_bytes(self):
        directory = Directory()
        directory.record_read(0x100, requester=1, home=0)
        assert directory.entry(0x11F).sharers == {1}
        assert directory.entry(0x120).sharers == set()

    def test_helper_predicates(self):
        # The oracle's queries (tests/mp/reference_mp.py) over the
        # shipped directory's state.
        directory = ReferenceDirectory()
        directory.record_write(0x100, requester=1, home=0)
        assert directory.is_remote_exclusive(0x100, node=0)
        assert not directory.is_remote_exclusive(0x100, node=1)
        assert directory.is_owner(0x100, node=1)

    def test_queries_do_not_allocate_entries(self):
        directory = ReferenceDirectory(num_nodes=4)
        directory.record_write(0x100, requester=1, home=0)
        before = len(directory._entries)
        for addr in range(0, 0x400, 8):
            for node in range(4):
                directory.is_remote_exclusive(addr, node)
                directory.is_owner(addr, node)
                directory.copies_to_invalidate(addr, node)
        assert len(directory._entries) == before == 1
        assert directory.peek(0x11F) is directory.entry(0x100)
        assert directory.peek(0x120) is None


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),  # write?
            st.integers(0, 3),  # requester
            st.sampled_from([0x0, 0x20, 0x40]),  # block
        ),
        max_size=60,
    )
)
def test_single_writer_multiple_readers_invariant(ops):
    """After every operation the directory satisfies SWMR, and the
    entry invariants hold (check() raises otherwise)."""
    directory = Directory()
    holders: dict[int, set[int]] = {}  # block -> nodes with valid copies
    for write, requester, block in ops:
        home = 0
        if write:
            victims = directory.record_write(block, requester, home)
            held = holders.setdefault(block, set())
            held -= victims
            held.discard(requester)
            if requester != home:
                held.add(requester)
            # Writer is the only remote copy-holder after a write.
            assert held <= {requester}
        else:
            directory.record_read(block, requester, home)
            if requester != home:
                holders.setdefault(block, set()).add(requester)
        entry = directory.entry(block)
        entry.check()
        if entry.state is BlockState.EXCLUSIVE:
            assert len(entry.sharers) == 0


class TestConfiguredNodeCount:
    """With ``num_nodes`` configured, node ids are validated everywhere."""

    def test_requester_out_of_range_rejected(self):
        directory = Directory(num_nodes=4)
        with pytest.raises(ProtocolError, match=r"requester 7 out of range"):
            directory.record_read(0x100, requester=7, home=0)
        with pytest.raises(ProtocolError, match=r"requester 4 out of range"):
            directory.record_write(0x100, requester=4, home=0)

    def test_home_out_of_range_rejected(self):
        directory = Directory(num_nodes=2)
        with pytest.raises(ProtocolError, match=r"home 5 out of range"):
            directory.record_read(0x100, requester=1, home=5)

    def test_eviction_by_unknown_node_rejected(self):
        directory = Directory(num_nodes=2)
        with pytest.raises(ProtocolError, match=r"evicting node 3"):
            directory.record_eviction(0x100, node=3)

    def test_negative_node_rejected_even_unconfigured(self):
        directory = Directory()
        with pytest.raises(ProtocolError, match=r"requester -1"):
            directory.record_read(0x100, requester=-1, home=0)

    def test_error_names_the_block_address(self):
        directory = Directory(num_nodes=2)
        with pytest.raises(ProtocolError, match=r"at block 0x140"):
            directory.record_write(0x145, requester=9, home=0)

    def test_entry_check_bounds_owner_and_sharers(self):
        entry = BlockEntry(state=BlockState.EXCLUSIVE, owner=12)
        entry.check()  # arbitrary int still fine when size unknown
        with pytest.raises(ProtocolError, match=r"node id\(s\) \[12\].*4-node"):
            entry.check(num_nodes=4)
        shared = BlockEntry(state=BlockState.SHARED, sharers={1, 5, 9})
        with pytest.raises(ProtocolError, match=r"\[5, 9\]"):
            shared.check(num_nodes=4, addr=0x20)
        with pytest.raises(ProtocolError, match=r"negative node id"):
            BlockEntry(state=BlockState.SHARED, sharers={-2}).check()

    @pytest.mark.parametrize(("entry", "num_nodes", "message"), [
        (BlockEntry(state=BlockState.SHARED, sharers={2, -3, -1}), 2,
         "negative node id(s) [-3, -1] at block 0x40"),
        (BlockEntry(state=BlockState.EXCLUSIVE, owner=-1), None,
         "negative node id(s) [-1] at block 0x40"),
        (BlockEntry(state=BlockState.SHARED, sharers={7, 0, 4}), 4,
         "node id(s) [4, 7] out of range for a 4-node system at block 0x40"),
        (BlockEntry(state=BlockState.EXCLUSIVE, owner=4), 4,
         "node id(s) [4] out of range for a 4-node system at block 0x40"),
    ])
    def test_entry_check_messages(self, entry, num_nodes, message):
        """Negative ids are reported before out-of-range ones, each
        sorted, with the block named."""
        with pytest.raises(ProtocolError) as raised:
            entry.check(num_nodes=num_nodes, addr=0x40)
        assert str(raised.value) == message

    def test_entry_check_passes_in_range_ids(self):
        BlockEntry(state=BlockState.SHARED, sharers={0, 3}).check(num_nodes=4)
        BlockEntry(state=BlockState.EXCLUSIVE, owner=3).check(num_nodes=4)
        BlockEntry(state=BlockState.EXCLUSIVE, owner=99).check()
        BlockEntry().check(num_nodes=1)

    def test_in_range_ids_accepted(self):
        directory = Directory(num_nodes=4)
        directory.record_read(0x100, requester=3, home=0)
        victims = directory.record_write(0x100, requester=1, home=0)
        assert victims == {3}

    def test_nonpositive_num_nodes_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            Directory(num_nodes=0)
