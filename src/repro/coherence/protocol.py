"""Directory-based write-invalidate coherence (Sections 4.2, 6.1).

Coherence is maintained on 32-byte blocks by a directory co-located with
each block's home memory (stored in the spare ECC bits — the bit-level
encoding is proved out in :mod:`repro.dram.directory`; here the protocol
keeps full sharer sets for simulation).

States follow MSI as seen from the home:

- ``UNOWNED``: memory holds the only copy;
- ``SHARED``: one or more nodes hold read-only copies;
- ``EXCLUSIVE``: exactly one node holds a writable (possibly dirty) copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.common.errors import ConfigError, ProtocolError
from repro.common.params import COHERENCE_UNIT_BYTES


class BlockState(Enum):
    UNOWNED = "unowned"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


def _at(addr: int | None) -> str:
    return f" at block 0x{addr:x}" if addr is not None else ""


@dataclass
class BlockEntry:
    state: BlockState = BlockState.UNOWNED
    sharers: set[int] = field(default_factory=set)
    owner: int | None = None

    def copies_except(self, node: int) -> set[int]:
        """The nodes other than ``node`` that hold a copy of this block."""
        if self.state is BlockState.SHARED:
            return self.sharers - {node}
        if self.state is BlockState.EXCLUSIVE and self.owner != node:
            return {self.owner}
        return set()

    def check(self, num_nodes: int | None = None, addr: int | None = None) -> None:
        """Protocol invariants (exercised heavily by the test suite).

        ``num_nodes`` additionally bounds every owner/sharer id to the
        configured machine size; ``addr`` names the offending block in the
        :class:`ProtocolError` message.
        """
        if self.state is BlockState.UNOWNED and (self.sharers or self.owner is not None):
            raise ProtocolError(f"UNOWNED block has copies{_at(addr)}")
        if self.state is BlockState.SHARED and (not self.sharers or self.owner is not None):
            raise ProtocolError(f"SHARED block inconsistent{_at(addr)}")
        if self.state is BlockState.EXCLUSIVE and (
            self.owner is None or self.sharers
        ):
            raise ProtocolError(f"EXCLUSIVE block inconsistent{_at(addr)}")
        # Bound the ids by their extremes; list them only for the error.
        sharers, owner = self.sharers, self.owner
        if sharers:
            low, high = min(sharers), max(sharers)
            if owner is not None:
                low, high = min(low, owner), max(high, owner)
        elif owner is not None:
            low = high = owner
        else:
            return
        if low >= 0 and (num_nodes is None or high < num_nodes):
            return
        ids = sharers | {owner} if owner is not None else sharers
        if low < 0:
            negative = sorted(i for i in ids if i < 0)
            raise ProtocolError(f"negative node id(s) {negative}{_at(addr)}")
        out_of_range = sorted(i for i in ids if i >= num_nodes)
        raise ProtocolError(
            f"node id(s) {out_of_range} out of range for a "
            f"{num_nodes}-node system{_at(addr)}"
        )


@dataclass
class ProtocolStats:
    read_local: int = 0
    read_remote: int = 0
    write_local: int = 0
    write_remote: int = 0
    invalidations_sent: int = 0
    recalls: int = 0
    writebacks: int = 0


class Directory:
    """All directory entries, keyed by block address.

    ``num_nodes``, when given, makes every runtime invariant check also
    validate node ids (requester, home, owner, sharers) against the
    configured machine size instead of accepting arbitrary ints.
    """

    def __init__(
        self,
        block_bytes: int = COHERENCE_UNIT_BYTES,
        num_nodes: int | None = None,
    ) -> None:
        if num_nodes is not None and num_nodes < 1:
            raise ConfigError("num_nodes must be positive when given")
        self.block_bytes = block_bytes
        self.num_nodes = num_nodes
        self._entries: dict[int, BlockEntry] = {}
        # The entry of a block-aligned address, or None: ``peek`` without
        # the alignment, for callers that look up one block per reference.
        self.entry_of_block = self._entries.get
        self.stats = ProtocolStats()

    def block_of(self, addr: int) -> int:
        return addr - (addr % self.block_bytes)

    def _check_node(self, node: int, role: str, addr: int) -> None:
        if node < 0 or (self.num_nodes is not None and node >= self.num_nodes):
            bound = self.num_nodes if self.num_nodes is not None else "?"
            raise ProtocolError(
                f"{role} {node} out of range for a {bound}-node "
                f"system{_at(self.block_of(addr))}"
            )

    def entry(self, addr: int) -> BlockEntry:
        block = self.block_of(addr)
        found = self._entries.get(block)
        if found is None:
            found = BlockEntry()
            self._entries[block] = found
        return found

    def peek(self, addr: int) -> BlockEntry | None:
        """The entry of ``addr``'s block if one exists; never allocates.

        A missing entry means ``UNOWNED``: read-only queries go through
        here so they leave ``_entries`` unchanged.
        """
        return self._entries.get(addr - addr % self.block_bytes)

    # -- state transitions --------------------------------------------------
    # ``record_write`` returns the set of nodes whose cached copies must be
    # dropped; ``record_read`` returns nothing, as a read invalidates no
    # copy (a recalled owner keeps a shared one).  Both bound the node ids
    # and check the entry's invariants before and after the transition.

    def record_read(self, addr: int, requester: int, home: int) -> None:
        """A read by ``requester`` reaches the home directory."""
        nodes = self.num_nodes
        if requester < 0 or home < 0 or (
                nodes is not None and (requester >= nodes or home >= nodes)):
            self._check_node(requester, "requester", addr)
            self._check_node(home, "home", addr)
        block = addr - addr % self.block_bytes
        entry = self._entries.get(block)
        if entry is None:
            entry = self._entries[block] = BlockEntry()
        entry.check(nodes, block)
        if entry.state is BlockState.EXCLUSIVE and entry.owner != requester:
            # Owner writes back; both keep shared copies (or home memory
            # regains ownership if the reader is the home itself).
            self.stats.recalls += 1
            self.stats.writebacks += 1
            previous_owner = entry.owner
            entry.state = BlockState.SHARED
            entry.sharers = {previous_owner}
            entry.owner = None
        if requester != home:
            if entry.state is BlockState.EXCLUSIVE:
                pass  # requester already owns it
            else:
                entry.sharers.add(requester)
                entry.state = BlockState.SHARED
        elif entry.state is BlockState.SHARED and not entry.sharers:
            entry.state = BlockState.UNOWNED
        entry.check(nodes, block)

    def record_write(self, addr: int, requester: int, home: int) -> set[int]:
        """A write by ``requester``: invalidate every other copy."""
        nodes = self.num_nodes
        if requester < 0 or home < 0 or (
                nodes is not None and (requester >= nodes or home >= nodes)):
            self._check_node(requester, "requester", addr)
            self._check_node(home, "home", addr)
        block = addr - addr % self.block_bytes
        entry = self._entries.get(block)
        if entry is None:
            entry = self._entries[block] = BlockEntry()
        entry.check(nodes, block)
        victims = entry.copies_except(requester)
        if victims:
            self.stats.invalidations_sent += len(victims)
            if entry.state is BlockState.EXCLUSIVE:
                self.stats.writebacks += 1
        if requester == home:
            # Home writes its own memory: memory is the owner again.
            entry.state = BlockState.UNOWNED
            entry.sharers = set()
            entry.owner = None
        else:
            entry.state = BlockState.EXCLUSIVE
            entry.sharers = set()
            entry.owner = requester
        entry.check(nodes, block)
        return victims

    def record_eviction(self, addr: int, node: int) -> None:
        """``node`` dropped its copy (cache replacement)."""
        self._check_node(node, "evicting node", addr)
        entry = self.entry(addr)
        if entry.state is BlockState.EXCLUSIVE and entry.owner == node:
            self.stats.writebacks += 1
            entry.state = BlockState.UNOWNED
            entry.owner = None
        else:
            entry.sharers.discard(node)
            if entry.state is BlockState.SHARED and not entry.sharers:
                entry.state = BlockState.UNOWNED
        entry.check(self.num_nodes, self.block_of(addr))
