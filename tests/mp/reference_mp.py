"""The object-oriented MP engine, kept as the oracle for the fast one.

:class:`ReferenceMPSystem`, :class:`ReferenceMPEngine` and the three
node classes are the logic :mod:`repro.mp.engine`, :mod:`repro.mp.system`
and :mod:`repro.mp.node` shipped before ``MPSystem.access`` gained its
local-hit fast path: every reference is routed through the directory
queries, a generic ``lookup`` on the node and a level-to-latency map,
and the engine dispatches ops through an if-chain over their opcodes,
in the order it once tested the op record classes.  They are
kept here, in the tests only, so ``test_fast_equivalence`` can require
the shipped engine to produce identical results and statistics.

They share the cache, directory, fabric and layout models with
:mod:`repro`; those have their own oracles and tests.  The directory
queries and the per-message ``send`` that only the oracle calls live
here, on :class:`ReferenceDirectory` and :class:`ReferenceFabric`.  One fix was
applied to both sides: a remote write by the owner that hits the
reference machine's FLC costs ``flc_hit``, as a read does, not
``victim_hit``.

:func:`observables` lists what the two must agree on.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.caches.column_buffer import ColumnBufferCache
from repro.caches.set_assoc import SetAssociativeCache
from repro.caches.victim import VictimCache
from repro.coherence.inc import InterNodeCache
from repro.coherence.protocol import BlockState, Directory
from repro.common.errors import ConfigError, SimulationError
from repro.common.params import (
    COHERENCE_UNIT_BYTES,
    CacheGeometry,
    IntegratedDeviceParams,
    MPLatencies,
)
from repro.common.units import KB, MB
from repro.interconnect.fabric import Fabric, MessageType
from repro.mp.engine import KernelFactory, MPResult
from repro.mp.layout import Layout
from repro.mp.node import HitLevel
from repro.mp.ops import BARRIER, COMPUTE, LOCK, READ, UNLOCK, WRITE
from repro.mp.system import AccessStats, SystemKind


# -- nodes --------------------------------------------------------------------


class ReferenceIntegratedNode:
    def __init__(
        self,
        node_id: int,
        params: IntegratedDeviceParams | None = None,
        inc_bytes: int = 1 * MB,
        with_victim: bool = True,
        on_remote_eviction: Callable[[int, int], None] | None = None,
    ) -> None:
        self.node_id = node_id
        self.params = params or IntegratedDeviceParams()
        self.victim = VictimCache(self.params.victim) if with_victim else None
        self.columns = ColumnBufferCache(
            self.params.dcache_geometry, victim=self.victim
        )

        def _inc_evicted(addr: int) -> None:
            if self.victim is not None:
                self.victim.invalidate(addr)
            if on_remote_eviction is not None:
                on_remote_eviction(self.node_id, addr)

        self.inc = InterNodeCache(inc_bytes, on_evict=_inc_evicted)

    def lookup(self, addr: int, is_local: bool) -> HitLevel:
        if is_local:
            if self.columns.access(addr):
                if self.columns.last_hit_was_victim:
                    return HitLevel.VICTIM
                return HitLevel.CACHE
            return HitLevel.LOCAL_MEMORY
        if self.victim is not None and self.victim.probe(addr):
            return HitLevel.VICTIM
        if self.inc.probe(addr):
            return HitLevel.INC
        return HitLevel.REMOTE

    def fill_remote(self, addr: int) -> None:
        self.inc.install(addr)
        if self.victim is not None:
            self.victim.insert(addr)

    def invalidate(self, addr: int) -> None:
        self.inc.invalidate(addr)
        if self.victim is not None:
            self.victim.invalidate(addr)

    def holds_remote(self, addr: int) -> bool:
        return self.inc.contains(addr)


class ReferenceSCOMANode(ReferenceIntegratedNode):
    def __init__(
        self,
        node_id: int,
        params: IntegratedDeviceParams | None = None,
        page_bytes: int = 4096,
        with_victim: bool = True,
        on_remote_eviction: Callable[[int, int], None] | None = None,
    ) -> None:
        super().__init__(
            node_id,
            params=params,
            with_victim=with_victim,
            on_remote_eviction=on_remote_eviction,
        )
        self.page_bytes = page_bytes
        self._pages: set[int] = set()
        self._valid_blocks: set[int] = set()
        self.page_faults = 0

    def _page(self, addr: int) -> int:
        return addr // self.page_bytes

    def _block(self, addr: int) -> int:
        return addr - (addr % COHERENCE_UNIT_BYTES)

    def lookup(self, addr: int, is_local: bool) -> HitLevel:
        if is_local:
            return super().lookup(addr, True)
        if self._page(addr) not in self._pages:
            self.page_faults += 1
            return HitLevel.PAGE_FAULT
        if self._block(addr) not in self._valid_blocks:
            return HitLevel.REMOTE
        return super().lookup(addr, True)

    def fill_remote(self, addr: int) -> None:
        self._pages.add(self._page(addr))
        self._valid_blocks.add(self._block(addr))

    def invalidate(self, addr: int) -> None:
        self._valid_blocks.discard(self._block(addr))
        if self.victim is not None:
            self.victim.invalidate(addr)

    def holds_remote(self, addr: int) -> bool:
        return self._block(addr) in self._valid_blocks


class ReferenceCCNUMANode:
    def __init__(
        self,
        node_id: int,
        flc_geometry: CacheGeometry | None = None,
    ) -> None:
        self.node_id = node_id
        self.flc = SetAssociativeCache(
            flc_geometry or CacheGeometry(16 * KB, COHERENCE_UNIT_BYTES, 1)
        )
        self._slc: set[int] = set()

    @staticmethod
    def _block(addr: int) -> int:
        return addr - (addr % COHERENCE_UNIT_BYTES)

    def lookup(self, addr: int, is_local: bool) -> HitLevel:
        if self.flc.access(addr):
            return HitLevel.CACHE
        if self._block(addr) in self._slc:
            return HitLevel.SLC
        if is_local:
            self._slc.add(self._block(addr))
            return HitLevel.LOCAL_MEMORY
        return HitLevel.REMOTE

    def fill_remote(self, addr: int) -> None:
        self._slc.add(self._block(addr))

    def invalidate(self, addr: int) -> None:
        self._slc.discard(self._block(addr))
        self.flc.invalidate(addr)

    def holds_remote(self, addr: int) -> bool:
        return self._block(addr) in self._slc


# -- directory and fabric queries ---------------------------------------------


class ReferenceDirectory(Directory):
    """The shipped directory plus the read-only queries the oracle routes
    every reference through; the fast engine reads the block's entry
    once instead."""

    def copies_to_invalidate(self, addr: int, requester: int) -> set[int]:
        """Nodes (other than the requester) holding copies of ``addr``."""
        entry = self.peek(addr)
        return set() if entry is None else entry.copies_except(requester)

    def is_remote_exclusive(self, addr: int, node: int) -> bool:
        entry = self.peek(addr)
        return (entry is not None and entry.state is BlockState.EXCLUSIVE
                and entry.owner != node)

    def is_owner(self, addr: int, node: int) -> bool:
        entry = self.peek(addr)
        return (entry is not None and entry.state is BlockState.EXCLUSIVE
                and entry.owner == node)


class ReferenceFabric(Fabric):
    """The shipped fabric plus the per-message ``send`` the oracle calls;
    the fast engine records into ``stats`` directly."""

    def send(self, kind: MessageType, count: int = 1) -> None:
        self.stats.record(kind, count)


# -- system -------------------------------------------------------------------


class ReferenceMPSystem:
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
        self.directory = ReferenceDirectory(num_nodes=num_nodes)
        self.fabric = ReferenceFabric(device_params)
        self.stats = AccessStats()
        self.node_stats = [AccessStats() for _ in range(num_nodes)]

        def _remote_evicted(node_id: int, addr: int) -> None:
            self.directory.record_eviction(addr, node_id)

        if kind is SystemKind.REFERENCE:
            self.nodes = [ReferenceCCNUMANode(i) for i in range(num_nodes)]
            self._reference_evictions = True
        elif kind is SystemKind.SCOMA:
            self.nodes = [
                ReferenceSCOMANode(i, params=device_params,
                                   on_remote_eviction=_remote_evicted)
                for i in range(num_nodes)
            ]
            self._reference_evictions = False
        else:
            with_victim = kind is SystemKind.INTEGRATED
            self.nodes = [
                ReferenceIntegratedNode(
                    i,
                    params=device_params,
                    inc_bytes=inc_bytes,
                    with_victim=with_victim,
                    on_remote_eviction=_remote_evicted,
                )
                for i in range(num_nodes)
            ]
            self._reference_evictions = False

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def access(self, node_id: int, addr: int, write: bool) -> int:
        home = self.layout.home_of(addr)
        local = home == node_id
        for stats in (self.stats, self.node_stats[node_id]):
            if write:
                stats.writes += 1
            else:
                stats.reads += 1
            if local:
                stats.local += 1
            else:
                stats.remote += 1
        self._current_node_stats = self.node_stats[node_id]
        if local:
            return self._local_access(node_id, addr, write)
        return self._remote_access(node_id, addr, home, write)

    def _record_level(self, level: HitLevel) -> None:
        for stats in (self.stats, self._current_node_stats):
            stats.by_level[level] = stats.by_level.get(level, 0) + 1

    def _invalidate_copies(self, addr: int, victims: set[int]) -> None:
        for victim in victims:
            self.nodes[victim].invalidate(addr)
        if victims:
            self.fabric.send(MessageType.INVALIDATE, len(victims))
            self.fabric.send(MessageType.ACK, len(victims))

    def _local_access(self, node_id: int, addr: int, write: bool) -> int:
        node = self.nodes[node_id]
        lat = self.latencies
        directory = self.directory
        if directory.is_remote_exclusive(addr, node_id):
            self.stats.recalls += 1
            if write:
                victims = directory.record_write(addr, node_id, node_id)
                self._invalidate_copies(addr, victims)
            else:
                directory.record_read(addr, node_id, node_id)
                self.fabric.send(MessageType.READ_REQUEST)
            self.fabric.send(MessageType.WRITEBACK)
            node.lookup(addr, is_local=True)
            self._record_level(HitLevel.REMOTE)
            return lat.invalidation_round_trip
        if write:
            victims = directory.copies_to_invalidate(addr, node_id)
            level = node.lookup(addr, is_local=True)
            self._record_level(level)
            if victims:
                self.stats.upgrades += 1
                directory.record_write(addr, node_id, node_id)
                self._invalidate_copies(addr, victims)
                return lat.invalidation_round_trip
            return self._local_level_latency(level)
        level = node.lookup(addr, is_local=True)
        self._record_level(level)
        return self._local_level_latency(level)

    def _local_level_latency(self, level: HitLevel) -> int:
        lat = self.latencies
        if level is HitLevel.CACHE:
            return lat.cache_hit if not self._reference_evictions else lat.flc_hit
        if level is HitLevel.VICTIM:
            return lat.victim_hit
        if level is HitLevel.SLC:
            return lat.slc_hit
        return lat.local_memory

    def _remote_access(self, node_id: int, addr: int, home: int, write: bool) -> int:
        node = self.nodes[node_id]
        lat = self.latencies
        directory = self.directory
        if write:
            if directory.is_owner(addr, node_id):
                level = node.lookup(addr, is_local=False)
                if level in (HitLevel.CACHE, HitLevel.VICTIM):
                    self._record_level(level)
                    return (lat.victim_hit if not self._reference_evictions
                            else lat.flc_hit)
                if level in (HitLevel.INC, HitLevel.SLC):
                    self._record_level(level)
                    return lat.inc_access if not self._reference_evictions else lat.slc_hit
                if level is HitLevel.LOCAL_MEMORY:
                    self._record_level(level)
                    return lat.local_memory
            self.stats.upgrades += 1
            victims = directory.record_write(addr, node_id, home)
            self._invalidate_copies(addr, victims)
            node.fill_remote(addr)
            self.fabric.send(MessageType.WRITE_REQUEST)
            self.fabric.send(MessageType.READ_REPLY)
            self._record_level(HitLevel.REMOTE)
            return lat.invalidation_round_trip
        level = node.lookup(addr, is_local=False)
        if level in (HitLevel.CACHE, HitLevel.VICTIM):
            self._record_level(level)
            return lat.victim_hit if not self._reference_evictions else lat.flc_hit
        if level is HitLevel.INC:
            self._record_level(level)
            return lat.inc_access
        if level is HitLevel.SLC:
            self._record_level(level)
            return lat.slc_hit
        if level is HitLevel.LOCAL_MEMORY:
            self._record_level(level)
            return lat.local_memory
        directory.record_read(addr, node_id, home)
        node.fill_remote(addr)
        self.fabric.send(MessageType.READ_REQUEST)
        self.fabric.send(MessageType.READ_REPLY)
        self._record_level(level if level is HitLevel.PAGE_FAULT
                           else HitLevel.REMOTE)
        if level is HitLevel.PAGE_FAULT:
            return lat.scoma_page_fault + lat.remote_load
        return lat.remote_load


# -- engine -------------------------------------------------------------------


@dataclass
class _LockState:
    holder: int | None = None
    waiters: list[int] = field(default_factory=list)


@dataclass
class _BarrierState:
    waiting: list[int] = field(default_factory=list)
    latest_arrival: int = 0


class ReferenceMPEngine:
    def __init__(
        self,
        system: ReferenceMPSystem,
        barrier_overhead: int = 100,
        lock_transfer_cycles: int = 80,
        max_ops: int = 200_000_000,
    ) -> None:
        self.system = system
        self.barrier_overhead = barrier_overhead
        self.lock_transfer_cycles = lock_transfer_cycles
        self.max_ops = max_ops

    def run(self, kernel: KernelFactory) -> MPResult:
        n = self.system.num_nodes
        procs = [kernel(i, n) for i in range(n)]
        time = [0] * n
        finished = [False] * n
        ops_executed = [0] * n
        lock_wait = [0] * n
        barrier_wait = [0] * n
        locks: dict[int, _LockState] = {}
        barriers: dict[int, _BarrierState] = {}
        ready: list[tuple[int, int]] = [(0, i) for i in range(n)]
        heapq.heapify(ready)
        blocked_since: dict[int, int] = {}
        total_ops = 0

        def resume(proc: int, at_time: int) -> None:
            time[proc] = at_time
            heapq.heappush(ready, (at_time, proc))

        while ready:
            now, proc = heapq.heappop(ready)
            if finished[proc] or now < time[proc]:
                continue
            try:
                op = next(procs[proc])
            except StopIteration:
                finished[proc] = True
                continue
            total_ops += 1
            ops_executed[proc] += 1
            if total_ops > self.max_ops:
                raise SimulationError("MP op budget exceeded")

            code, arg = op
            if code in (READ, WRITE):
                latency = self.system.access(proc, arg, code == WRITE)
                resume(proc, now + latency)
            elif code == COMPUTE:
                resume(proc, now + max(0, arg))
            elif code == LOCK:
                state = locks.setdefault(arg, _LockState())
                if state.holder is None:
                    state.holder = proc
                    latency = self.system.access(proc, self._lock_addr(arg), True)
                    resume(proc, now + latency)
                else:
                    state.waiters.append(proc)
                    blocked_since[proc] = now
            elif code == UNLOCK:
                state = locks.get(arg)
                if state is None or state.holder != proc:
                    raise SimulationError(
                        f"proc {proc} unlocked lock {arg} it does not hold"
                    )
                latency = self.system.access(proc, self._lock_addr(arg), True)
                release_time = now + latency
                if state.waiters:
                    waiter = state.waiters.pop(0)
                    state.holder = waiter
                    start = release_time + self.lock_transfer_cycles
                    lock_wait[waiter] += start - blocked_since.pop(waiter)
                    resume(waiter, start)
                else:
                    state.holder = None
                resume(proc, release_time)
            elif code == BARRIER:
                state = barriers.setdefault(arg, _BarrierState())
                state.waiting.append(proc)
                state.latest_arrival = max(state.latest_arrival, now)
                if len(state.waiting) == n:
                    release = state.latest_arrival + self.barrier_overhead
                    for waiter in state.waiting:
                        barrier_wait[waiter] += release - (
                            time[waiter] if waiter != proc else now
                        )
                        resume(waiter, release)
                    barriers[arg] = _BarrierState()
            else:
                raise SimulationError(f"unknown op {op!r}")

        if not all(finished):
            stuck = [i for i, done in enumerate(finished) if not done]
            raise SimulationError(f"deadlock: processors {stuck} never finished")
        return MPResult(
            finish_times=time,
            ops_executed=ops_executed,
            lock_wait_cycles=lock_wait,
            barrier_wait_cycles=barrier_wait,
        )

    def _lock_addr(self, lock_id: int) -> int:
        region = self.system.layout.region_bytes
        home = lock_id % self.system.num_nodes
        offset = region - 0x1_0000 + (lock_id // self.system.num_nodes) * 64
        return home * region + offset


# -- what the two engines must agree on ----------------------------------------


def _node_state(node) -> dict:
    """Every counter and the contents of one node's caches."""
    if hasattr(node, "flc"):
        return {"flc": (dataclasses.asdict(node.flc.stats),
                        sorted(node.flc.resident_lines()), sorted(node._slc))}
    columns = node.columns
    state = {"columns": (dataclasses.asdict(columns.stats), columns.main_hits,
                         columns.victim_hits, columns.resident_lines())}
    if node.victim is not None:
        victim = node.victim
        state["victim"] = (victim.probes, victim.hits, victim.inserts,
                           victim.writebacks, victim.resident_blocks(),
                           sorted(victim._dirty))
    inc = node.inc
    state["inc"] = (inc.probes, inc.hits, inc.installs, inc.evictions,
                    [list(inc._sets[index]) for index in sorted(inc._sets)
                     if inc._sets[index]])
    if hasattr(node, "_pages"):
        state["scoma"] = (node.page_faults, sorted(node._pages),
                          sorted(node._valid_blocks))
    return state


def observables(result: MPResult, system) -> dict:
    """Everything a run leaves behind that both engines compute: the
    result, global and per-node access stats, directory state and stats,
    fabric stats, and each node's cache counters and contents."""
    entries = {
        block: (entry.state, sorted(entry.sharers), entry.owner)
        for block, entry in system.directory._entries.items()
        if entry.sharers or entry.owner is not None
    }
    return {
        "result": dataclasses.asdict(result),
        "stats": dataclasses.asdict(system.stats),
        "node_stats": [dataclasses.asdict(s) for s in system.node_stats],
        "directory": dataclasses.asdict(system.directory.stats),
        "entries": entries,
        "fabric": dataclasses.asdict(system.fabric.stats),
        "nodes": [_node_state(node) for node in system.nodes],
    }
