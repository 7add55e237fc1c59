"""Execution-driven multiprocessor engine.

Each processor runs a real Python kernel (a generator of
``(opcode, operand)`` pairs, :mod:`repro.mp.ops`); the engine interleaves
processors by simulated time — the CacheMire methodology of Section 6.1:
processors issue memory accesses, and the architecture model delays them
according to Table 6.  A yielded value that is not such a pair, or has an
unknown opcode, raises :class:`SimulationError` naming the processor and
the value.

Scheduling is an event queue of runnable processors ordered by
``(time, proc_id)``, which makes runs deterministic.  A runnable
processor has exactly one entry in it and a blocked or finished one
none, so every entry popped is current.  Locks are FIFO; barriers
release all participants at the latest arrival plus a fixed overhead.

The op loop serves local MRU hits itself (see :class:`MPSystem` for the
rule) with one directory-entry lookup and one MRU probe, counts them per
node, and credits their counters to the system once per run; every
other reference goes through ``MPSystem.access``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import obs
from repro.coherence.protocol import BlockState
from repro.common import tally
from repro.common.errors import SimulationError
from repro.mp.ops import BARRIER, COMPUTE, LOCK, READ, UNLOCK, WRITE, Op
from repro.mp.system import MPSystem

KernelFactory = Callable[[int, int], Iterator[Op]]
"""Builds the op stream for (proc_id, num_procs)."""

_UNOWNED = BlockState.UNOWNED
_SHARED = BlockState.SHARED


@dataclass
class _LockState:
    holder: int | None = None
    waiters: list[int] = field(default_factory=list)  # FIFO proc ids


@dataclass
class _BarrierState:
    waiting: list[int] = field(default_factory=list)
    latest_arrival: int = 0


@dataclass
class MPResult:
    """Outcome of one multiprocessor run."""

    finish_times: list[int]
    ops_executed: list[int]
    lock_wait_cycles: list[int]
    barrier_wait_cycles: list[int]

    @property
    def execution_time(self) -> int:
        """Total execution time: when the last processor finished."""
        return max(self.finish_times) if self.finish_times else 0

    @property
    def total_ops(self) -> int:
        return sum(self.ops_executed)


class MPEngine:
    """Drives one kernel on one system configuration."""

    def __init__(
        self,
        system: MPSystem,
        barrier_overhead: int = 100,
        lock_transfer_cycles: int = 80,
        max_ops: int = 200_000_000,
    ) -> None:
        self.system = system
        self.barrier_overhead = barrier_overhead
        self.lock_transfer_cycles = lock_transfer_cycles
        self.max_ops = max_ops

    def run(self, kernel: KernelFactory) -> MPResult:
        system = self.system
        fast_reads = [0] * system.num_nodes
        fast_writes = [0] * system.num_nodes
        with obs.span("mp/run"):
            try:
                result = self._run(kernel, fast_reads, fast_writes)
            finally:
                # Credited even when the run fails, so that the counters
                # always match the caches' contents.
                fast_hits = system.credit_fast_hits(fast_reads, fast_writes)
            tally.add("mp_fast_hits", fast_hits)
        return result

    def _run(
        self, kernel: KernelFactory, fast_reads: list[int], fast_writes: list[int]
    ) -> MPResult:
        """The op loop; counts the local fast-path hits of each node in
        ``fast_reads`` and ``fast_writes``."""
        system = self.system
        n = system.num_nodes
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
        max_ops = self.max_ops
        access = system.access
        heappush, heappop = heapq.heappush, heapq.heappop
        region, block = system.region_bytes, system.block_bytes
        entry_of_block, hit_mru = system.entry_of_block, system.hit_mru
        mru_latency = system.mru_latency

        def resume(proc: int, at_time: int) -> None:
            time[proc] = at_time
            heappush(ready, (at_time, proc))

        while ready:
            now, proc = heappop(ready)
            try:
                op = next(procs[proc])
            except StopIteration:
                finished[proc] = True
                continue
            total_ops += 1
            ops_executed[proc] += 1
            if total_ops > max_ops:
                raise SimulationError(
                    f"MP op budget exceeded: max_ops={max_ops}, reached "
                    f"at proc {proc}")
            try:
                code, arg = op
            except (TypeError, ValueError):
                raise SimulationError(
                    f"proc {proc} yielded {op!r}, not an (opcode, operand) "
                    "pair") from None

            if code == READ or code == WRITE:
                if (
                    arg // region == proc
                    and ((entry := entry_of_block(arg - arg % block)) is None
                         or entry.state is _UNOWNED
                         or (entry.state is _SHARED and code == READ))
                    and hit_mru[proc](arg)
                ):
                    now += mru_latency
                    if code == READ:
                        fast_reads[proc] += 1
                    else:
                        fast_writes[proc] += 1
                else:
                    now += access(proc, arg, code == WRITE)
                time[proc] = now
                heappush(ready, (now, proc))
            elif code == COMPUTE:
                if arg > 0:
                    now += arg
                time[proc] = now
                heappush(ready, (now, proc))
            elif code == LOCK:
                state = locks.setdefault(arg, _LockState())
                if state.holder is None:
                    state.holder = proc
                    latency = access(proc, self._lock_addr(arg), True)
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
                latency = access(proc, self._lock_addr(arg), True)
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
                # else: the processor stays blocked (not re-queued).
            else:
                raise SimulationError(
                    f"proc {proc} yielded {op!r}: unknown opcode {code!r}")

        if not all(finished):
            stuck = [i for i, done in enumerate(finished) if not done]
            raise SimulationError(f"deadlock: processors {stuck} never finished")
        tally.add("mp_ops", total_ops)
        return MPResult(
            finish_times=time,
            ops_executed=ops_executed,
            lock_wait_cycles=lock_wait,
            barrier_wait_cycles=barrier_wait,
        )

    def _lock_addr(self, lock_id: int) -> int:
        """Locks are distributed round-robin over the nodes' regions."""
        region = self.system.layout.region_bytes
        home = lock_id % self.system.num_nodes
        # Locks occupy the top 64 KB of each region, clear of data allocations.
        offset = region - 0x1_0000 + (lock_id // self.system.num_nodes) * 64
        return home * region + offset
