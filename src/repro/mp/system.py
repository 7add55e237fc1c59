"""The shared-memory system model: nodes + directory + latencies.

``MPSystem.access`` is the heart of the MP evaluation: it routes one
read or write through the requesting node's caches and the
write-invalidate directory protocol, maintains every node's cache
contents, and returns the latency in processor cycles per Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.coherence.protocol import BlockState, Directory
from repro.common.errors import ConfigError
from repro.common.params import IntegratedDeviceParams, MPLatencies
from repro.common.units import MB
from repro.interconnect.fabric import Fabric, MessageType
from repro.mp.layout import Layout
from repro.mp.node import HitLevel, IntegratedNode, ReferenceNode, SCOMANode

_CACHE = HitLevel.CACHE
_UNOWNED = BlockState.UNOWNED
_SHARED = BlockState.SHARED


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

    def imbalance(self, others: list["AccessStats"]) -> float:
        """Max/mean access-count ratio across per-node stats."""
        counts = [s.total for s in others]
        mean = sum(counts) / len(counts) if counts else 0
        return max(counts) / mean if mean else 0.0

    @property
    def total(self) -> int:
        return self.reads + self.writes


class MPSystem:
    """A CC-NUMA machine built from integrated or reference nodes.

    :meth:`access` counts each reference once, in its node's
    ``node_stats`` entry; ``upgrades`` and ``recalls`` count the
    machine's coherence events, and :attr:`stats` derives the
    machine-wide totals from both.  ``fast_hits`` counts the references
    served by the local-hit fast path of :meth:`access`.
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
        # Fixed for the machine's lifetime; read by the fast path.
        self._region_bytes = self.layout.region_bytes
        self._regions = self.layout.num_nodes
        self._hit_mru = [node.hit_local_mru for node in self.nodes]
        self._mru_latency = cache_hit

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
        """Apply one reference; returns its latency in cycles.

        Fast path: a local reference whose block the directory already
        lets this node use (a read of a block no remote node owns, or a
        write to a block no remote node holds) and which hits the MRU
        line of its set costs one cache hit and touches neither the
        directory nor the fabric.  Everything else takes the protocol
        path below, which handles every case.
        """
        home = addr // self._region_bytes
        if not 0 <= home < self._regions:
            self.layout.home_of(addr)  # raises, naming the address
        nstats = self.node_stats[node_id]
        if write:
            nstats.writes += 1
        else:
            nstats.reads += 1
        if home != node_id:
            nstats.remote += 1
            return self._remote_access(node_id, addr, home, write, nstats)
        nstats.local += 1
        entry = self.directory.peek(addr)
        if (
            (entry is None or entry.state is _UNOWNED
             or (entry.state is _SHARED and not write))
            and self._hit_mru[node_id](addr)
        ):
            self.fast_hits += 1
            by_level = nstats.by_level
            by_level[_CACHE] = by_level.get(_CACHE, 0) + 1
            return self._mru_latency
        return self._local_access(node_id, addr, write, nstats)

    @staticmethod
    def _record_level(nstats: AccessStats, level: HitLevel) -> None:
        nstats.by_level[level] = nstats.by_level.get(level, 0) + 1

    def _invalidate_copies(self, addr: int, victims: set[int]) -> None:
        for victim in victims:
            self.nodes[victim].invalidate(addr)
        if victims:
            self.fabric.send(MessageType.INVALIDATE, len(victims))
            self.fabric.send(MessageType.ACK, len(victims))

    def _local_access(
        self, node_id: int, addr: int, write: bool, nstats: AccessStats
    ) -> int:
        node = self.nodes[node_id]
        lat = self.latencies
        directory = self.directory
        if directory.is_remote_exclusive(addr, node_id):
            # Recall the dirty block from its remote owner before touching
            # local memory (round-trip latency dominates).
            self.recalls += 1
            if write:
                victims = directory.record_write(addr, node_id, node_id)
                self._invalidate_copies(addr, victims)
            else:
                directory.record_read(addr, node_id, node_id)
                self.fabric.send(MessageType.READ_REQUEST)
            self.fabric.send(MessageType.WRITEBACK)
            node.lookup(addr, is_local=True)  # keep cache state coherent
            self._record_level(nstats, HitLevel.REMOTE)
            return lat.invalidation_round_trip
        victims = directory.copies_to_invalidate(addr, node_id) if write else None
        level = node.lookup(addr, is_local=True)
        self._record_level(nstats, level)
        if victims:
            self.upgrades += 1
            directory.record_write(addr, node_id, node_id)
            self._invalidate_copies(addr, victims)
            return lat.invalidation_round_trip
        return self._local_latency[level]

    def _remote_access(
        self, node_id: int, addr: int, home: int, write: bool, nstats: AccessStats
    ) -> int:
        node = self.nodes[node_id]
        lat = self.latencies
        directory = self.directory
        if not write or directory.is_owner(addr, node_id):
            level = node.lookup(addr, is_local=False)
            latency = self._remote_hit_latency.get(level)
            if latency is not None:
                self._record_level(nstats, level)
                return latency
            # Not held: a read miss, or an owner whose copy was evicted
            # (the eviction callback downgraded it).
        if write:
            # Upgrade or remote write miss: fetch ownership, invalidating
            # every other copy (one lumped round trip, Table 6).
            self.upgrades += 1
            victims = directory.record_write(addr, node_id, home)
            self._invalidate_copies(addr, victims)
            node.fill_remote(addr)
            self.fabric.send(MessageType.WRITE_REQUEST)
            self.fabric.send(MessageType.READ_REPLY)
            self._record_level(nstats, HitLevel.REMOTE)
            return lat.invalidation_round_trip
        # Remote load: to the home (and possibly on to a dirty owner),
        # one lumped 80-cycle latency (Table 6).  An S-COMA first touch of
        # the page additionally pays the software allocation fault.
        directory.record_read(addr, node_id, home)
        node.fill_remote(addr)
        self.fabric.send(MessageType.READ_REQUEST)
        self.fabric.send(MessageType.READ_REPLY)
        self._record_level(nstats, level if level is HitLevel.PAGE_FAULT
                           else HitLevel.REMOTE)
        if level is HitLevel.PAGE_FAULT:
            return lat.scoma_page_fault + lat.remote_load
        return lat.remote_load
