"""Shared-address-space layout for the CC-NUMA systems.

Physical memory is partitioned into one contiguous region per node; the
region index *is* the home node (the common first-touch/explicit placement
model).  Workloads allocate their data structures through
:class:`Layout` so locality decisions are explicit and auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError

NODE_REGION_BYTES = 1 << 28  # 256 MB per node


@dataclass
class Layout:
    """Per-node bump allocators over the partitioned address space."""

    num_nodes: int
    region_bytes: int = NODE_REGION_BYTES
    _cursors: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("need at least one node")
        if not self._cursors:
            self._cursors = [0] * self.num_nodes

    def home_of(self, addr: int) -> int:
        """The node whose memory holds ``addr``."""
        node = addr // self.region_bytes
        if not 0 <= node < self.num_nodes:
            raise ConfigError(f"address {addr:#x} outside any node region")
        return node

    def alloc(self, home: int, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` in ``home``'s region; returns the base address."""
        if not 0 <= home < self.num_nodes:
            raise ConfigError(f"no node {home}")
        cursor = self._cursors[home]
        cursor = (cursor + align - 1) // align * align
        base = home * self.region_bytes + cursor
        self._cursors[home] = cursor + nbytes
        if self._cursors[home] > self.region_bytes:
            raise ConfigError(f"node {home} region exhausted")
        return base
