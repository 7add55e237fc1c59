"""Operations a multiprocessor workload can issue.

Workload kernels are Python generators yielding these records; the MP
engine charges each one with simulated time from the node memory model
(Table 6 latencies) and handles synchronization.

Kernels build one record per op, so construction cost is per-op cost:
the records are slotted rather than frozen, which is cheaper to build.
They stay distinct classes, so ``Read(5) != Write(5)``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class Read:
    addr: int


@dataclass(slots=True)
class Write:
    addr: int


@dataclass(slots=True)
class Compute:
    """Local computation taking ``cycles`` with no memory traffic."""

    cycles: int


@dataclass(slots=True)
class Lock:
    lock_id: int


@dataclass(slots=True)
class Unlock:
    lock_id: int


@dataclass(slots=True)
class Barrier:
    barrier_id: int


Op = Read | Write | Compute | Lock | Unlock | Barrier
