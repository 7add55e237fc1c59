"""The shared-memory system model: nodes + directory + latencies.

``MPSystem.access`` is the heart of the MP evaluation: it routes one
read or write through the requesting node's caches and the
write-invalidate directory protocol, maintains every node's cache
contents, and returns the latency in processor cycles per Table 6.
The engine serves local MRU hits itself, from what ``MPSystem`` builds
for it, and credits their counters through
``MPSystem.credit_fast_hits`` once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.coherence.protocol import BlockEntry, BlockState, Directory
from repro.common.errors import ConfigError
from repro.common.params import IntegratedDeviceParams, MPLatencies
from repro.common.units import MB
from repro.interconnect.fabric import Fabric, MessageType
from repro.mp.layout import Layout
from repro.mp.node import HitLevel, IntegratedNode, ReferenceNode, SCOMANode

_CACHE = HitLevel.CACHE
_REMOTE = HitLevel.REMOTE
_EXCLUSIVE = BlockState.EXCLUSIVE
_READ_REQUEST = MessageType.READ_REQUEST
_READ_REPLY = MessageType.READ_REPLY
_WRITE_REQUEST = MessageType.WRITE_REQUEST
_INVALIDATE = MessageType.INVALIDATE
_ACK = MessageType.ACK
_WRITEBACK = MessageType.WRITEBACK


class SystemKind(Enum):
    """The three configurations of Figures 13-17, plus Simple-COMA.

    The paper's protocol engines support both CC-NUMA and Simple-COMA
    operation (Section 4.2); the evaluation section uses CC-NUMA, and the
    S-COMA mode is provided as the documented extension.
    """

    INTEGRATED = "integrated"  # column buffers + victim cache + INC
    INTEGRATED_NO_VICTIM = "integrated-no-victim"
    REFERENCE = "reference"  # 16 KB FLC + infinite SLC CC-NUMA
    SCOMA = "scoma"  # integrated device, Simple-COMA attraction memory


@dataclass
class AccessStats:
    by_level: dict[HitLevel, int] = field(default_factory=dict)
    reads: int = 0
    writes: int = 0
    local: int = 0
    remote: int = 0
    upgrades: int = 0
    recalls: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


class MPSystem:
    """A CC-NUMA machine built from integrated or reference nodes.

    Each reference is counted once, in its node's ``node_stats`` entry:
    by :meth:`access`, or by :meth:`credit_fast_hits` for the local MRU
    hits the engine served itself.  ``upgrades`` and ``recalls`` count
    the machine's coherence events, and :attr:`stats` derives the
    machine-wide totals from both.  ``fast_hits`` counts the references
    served by the engine's fast path.

    That fast path serves a local reference whose block the directory
    already lets the node use (a read of a block no remote node owns, or
    a write to a block no remote node holds) and which hits the MRU line
    of its set in ``mru_cache``: it costs ``mru_latency`` and touches
    neither the directory nor the fabric.  :meth:`access` takes the
    protocol path for every reference it is given, which gives the same
    result for such a hit.
    """

    def __init__(
        self,
        num_nodes: int,
        kind: SystemKind = SystemKind.INTEGRATED,
        latencies: MPLatencies | None = None,
        layout: Layout | None = None,
        inc_bytes: int = 1 * MB,
        device_params: IntegratedDeviceParams | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ConfigError("need at least one node")
        self.kind = kind
        self.latencies = latencies or MPLatencies()
        self.layout = layout or Layout(num_nodes)
        self.directory = Directory(num_nodes=num_nodes)
        self.fabric = Fabric(device_params)
        self.node_stats = [AccessStats() for _ in range(num_nodes)]
        self.upgrades = 0
        self.recalls = 0
        self.fast_hits = 0

        def _remote_evicted(node_id: int, addr: int) -> None:
            self.directory.record_eviction(addr, node_id)

        reference = kind is SystemKind.REFERENCE
        if reference:
            self.nodes = [ReferenceNode(i) for i in range(num_nodes)]
        elif kind is SystemKind.SCOMA:
            self.nodes = [
                SCOMANode(i, params=device_params,
                          on_remote_eviction=_remote_evicted)
                for i in range(num_nodes)
            ]
        else:
            with_victim = kind is SystemKind.INTEGRATED
            self.nodes = [
                IntegratedNode(
                    i,
                    params=device_params,
                    inc_bytes=inc_bytes,
                    with_victim=with_victim,
                    on_remote_eviction=_remote_evicted,
                )
                for i in range(num_nodes)
            ]
        # Table 6 latency of each level that serves a reference with no
        # protocol work.  A remote block found in the column buffers or
        # victim staging costs a victim hit, in the reference FLC an FLC
        # hit.  Integrated nodes have no SLC and reference nodes no INC.
        lat = self.latencies
        cache_hit = lat.flc_hit if reference else lat.cache_hit
        staged_hit = lat.flc_hit if reference else lat.victim_hit
        self._local_latency = {
            HitLevel.CACHE: cache_hit,
            HitLevel.VICTIM: lat.victim_hit,
            HitLevel.SLC: lat.slc_hit,
            HitLevel.LOCAL_MEMORY: lat.local_memory,
        }
        self._remote_hit_latency = {
            HitLevel.CACHE: staged_hit,
            HitLevel.VICTIM: staged_hit,
            HitLevel.INC: lat.inc_access,
            HitLevel.SLC: lat.slc_hit,
            HitLevel.LOCAL_MEMORY: lat.local_memory,  # S-COMA attraction memory
        }
        # What the engine's fast path reads, fixed for the machine's lifetime.
        self.region_bytes = self.layout.region_bytes
        self.block_bytes = self.directory.block_bytes
        self.entry_of_block = self.directory.entry_of_block
        self.hit_mru = [node.mru_cache.hit_mru for node in self.nodes]
        self.mru_latency = cache_hit
        self._regions = self.layout.num_nodes
        # The fabric's counter, bound once: ``Fabric.reset`` zeroes its
        # stats in place, so the binding stays valid.
        self._send = self.fabric.stats.record

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def stats(self) -> AccessStats:
        """Machine-wide access counts: the sum of ``node_stats``, with
        the machine's ``upgrades`` and ``recalls``."""
        total = AccessStats(upgrades=self.upgrades, recalls=self.recalls)
        by_level = total.by_level
        for nstats in self.node_stats:
            total.reads += nstats.reads
            total.writes += nstats.writes
            total.local += nstats.local
            total.remote += nstats.remote
            for level, count in nstats.by_level.items():
                by_level[level] = by_level.get(level, 0) + count
        return total

    # -- the protocol -------------------------------------------------------

    def access(self, node_id: int, addr: int, write: bool) -> int:
        """Apply one reference through the protocol; returns its latency
        in cycles."""
        home = addr // self.region_bytes
        if not 0 <= home < self._regions:
            self.layout.home_of(addr)  # raises, naming the address
        nstats = self.node_stats[node_id]
        if write:
            nstats.writes += 1
        else:
            nstats.reads += 1
        # Every directory query below reads this entry, before any
        # transition changes it.
        entry = self.entry_of_block(addr - addr % self.block_bytes)
        if home != node_id:
            nstats.remote += 1
            return self._remote_access(node_id, addr, home, write,
                                       nstats.by_level, entry)
        nstats.local += 1
        return self._local_access(node_id, addr, write, nstats.by_level, entry)

    def credit_fast_hits(self, reads: list[int], writes: list[int]) -> int:
        """Count the fast-path hits the engine served, per node, in
        ``node_stats``, ``fast_hits`` and each node's ``mru_cache``;
        returns their total."""
        total = 0
        for nstats, node, fast_reads, fast_writes in zip(
                self.node_stats, self.nodes, reads, writes):
            hits = fast_reads + fast_writes
            if hits:
                nstats.reads += fast_reads
                nstats.writes += fast_writes
                nstats.local += hits
                nstats.by_level[_CACHE] = nstats.by_level.get(_CACHE, 0) + hits
                node.mru_cache.credit_mru_hits(hits)
                total += hits
        self.fast_hits += total
        return total

    def _invalidate_copies(self, addr: int, victims: set[int]) -> None:
        """Drop ``victims``' copies of ``addr``; ``victims`` is not empty."""
        nodes = self.nodes
        for victim in victims:
            nodes[victim].invalidate(addr)
        count = len(victims)
        self._send(_INVALIDATE, count)
        self._send(_ACK, count)

    def _local_access(
        self, node_id: int, addr: int, write: bool,
        by_level: dict[HitLevel, int], entry: BlockEntry | None,
    ) -> int:
        node = self.nodes[node_id]
        lat = self.latencies
        if (entry is not None and entry.state is _EXCLUSIVE
                and entry.owner != node_id):
            # Recall the dirty block from its remote owner before touching
            # local memory (round-trip latency dominates).
            self.recalls += 1
            if write:
                # The one victim is the remote owner.
                self._invalidate_copies(
                    addr, self.directory.record_write(addr, node_id, node_id))
            else:
                self.directory.record_read(addr, node_id, node_id)
                self._send(_READ_REQUEST, 1)
            self._send(_WRITEBACK, 1)
            node.lookup(addr, is_local=True)  # keep cache state coherent
            by_level[_REMOTE] = by_level.get(_REMOTE, 0) + 1
            return lat.invalidation_round_trip
        victims = (entry.copies_except(node_id)
                   if write and entry is not None else None)
        level = node.lookup(addr, is_local=True)
        by_level[level] = by_level.get(level, 0) + 1
        if victims:
            self.upgrades += 1
            self.directory.record_write(addr, node_id, node_id)
            self._invalidate_copies(addr, victims)
            return lat.invalidation_round_trip
        return self._local_latency[level]

    def _remote_access(
        self, node_id: int, addr: int, home: int, write: bool,
        by_level: dict[HitLevel, int], entry: BlockEntry | None,
    ) -> int:
        node = self.nodes[node_id]
        lat = self.latencies
        if not write or (entry is not None and entry.state is _EXCLUSIVE
                         and entry.owner == node_id):
            level = node.lookup(addr, is_local=False)
            latency = self._remote_hit_latency.get(level)
            if latency is not None:
                by_level[level] = by_level.get(level, 0) + 1
                return latency
            # Not held: a read miss, or an owner whose copy was evicted
            # (the eviction callback downgraded it).
        if write:
            # Upgrade or remote write miss: fetch ownership, invalidating
            # every other copy (one lumped round trip, Table 6).
            self.upgrades += 1
            victims = self.directory.record_write(addr, node_id, home)
            if victims:
                self._invalidate_copies(addr, victims)
            node.fill_remote(addr)
            self._send(_WRITE_REQUEST, 1)
            self._send(_READ_REPLY, 1)
            by_level[_REMOTE] = by_level.get(_REMOTE, 0) + 1
            return lat.invalidation_round_trip
        # Remote load: to the home (and possibly on to a dirty owner),
        # one lumped 80-cycle latency (Table 6).  An S-COMA first touch of
        # the page additionally pays the software allocation fault.
        self.directory.record_read(addr, node_id, home)
        node.fill_remote(addr)
        self._send(_READ_REQUEST, 1)
        self._send(_READ_REPLY, 1)
        if level is HitLevel.PAGE_FAULT:
            by_level[level] = by_level.get(level, 0) + 1
            return lat.scoma_page_fault + lat.remote_load
        by_level[_REMOTE] = by_level.get(_REMOTE, 0) + 1
        return lat.remote_load
