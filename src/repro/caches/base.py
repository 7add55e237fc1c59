"""Cache simulator framework.

All caches share the :class:`Cache` base class: they consume one memory
reference at a time via :meth:`Cache.access` and accumulate hit/miss
statistics split by loads and stores, which is how the paper presents
Figure 8 (stacked load/store miss probabilities).

A *trace* here is anything iterable of ``(address, is_write)`` pairs, or a
:class:`repro.trace.stream.ReferenceTrace` (numpy-backed), which the
``run`` method consumes efficiently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from repro import obs
from repro.common import tally
from repro.common.stats import RatioStat


@dataclass
class CacheStats:
    """Load/store hit statistics for one cache."""

    loads: RatioStat = field(default_factory=RatioStat)
    stores: RatioStat = field(default_factory=RatioStat)
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.loads.total + self.stores.total

    @property
    def hits(self) -> int:
        return self.loads.hits + self.stores.hits

    @property
    def misses(self) -> int:
        return self.loads.misses + self.stores.misses

    @property
    def miss_rate(self) -> float:  # repro: unit(fraction)
        total = self.accesses
        return self.misses / total if total else 0.0

    @property
    def load_miss_rate(self) -> float:  # repro: unit(fraction)
        """Load misses as a fraction of *all* accesses (paper's stacking)."""
        total = self.accesses
        return self.loads.misses / total if total else 0.0

    @property
    def store_miss_rate(self) -> float:  # repro: unit(fraction)
        """Store misses as a fraction of *all* accesses."""
        total = self.accesses
        return self.stores.misses / total if total else 0.0

    def record(self, hit: bool, write: bool) -> None:
        (self.stores if write else self.loads).record(hit)

    def merged(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            loads=self.loads.merge(other.loads),
            stores=self.stores.merge(other.stores),
            evictions=self.evictions + other.evictions,
            writebacks=self.writebacks + other.writebacks,
        )


@runtime_checkable
class TraceLike(Protocol):
    """Anything that exposes parallel address / write-flag arrays."""

    @property
    def addresses(self) -> np.ndarray: ...

    @property
    def is_write(self) -> np.ndarray: ...


class Cache:
    """Base class for trace-driven cache models."""

    def __init__(self) -> None:
        self.stats = CacheStats()

    def access(self, addr: int, write: bool = False) -> bool:
        """Apply one reference; returns True on hit.  Updates ``stats``."""
        hit = self._lookup_and_update(addr, write)
        self.stats.record(hit, write)
        return hit

    def _lookup_and_update(self, addr: int, write: bool) -> bool:
        raise NotImplementedError

    def credit_mru_hits(self, count: int) -> None:
        """Count ``count`` load hits that ``hit_mru`` served uncounted."""
        loads = self.stats.loads
        loads.total += count
        loads.hits += count

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.stats = CacheStats()

    def run(self, trace: TraceLike | Iterable[tuple[int, bool]]) -> CacheStats:
        """Consume a whole trace and return the accumulated statistics."""
        with obs.span(f"cache/run/{type(self).__name__}"):
            before = self.stats.accesses
            for addr, write in iter_trace(trace):
                self.access(addr, write)
            tally.add("cache_refs", self.stats.accesses - before)
        return self.stats


def iter_trace(
    trace: TraceLike | Iterable[tuple[int, bool]],
) -> Iterator[tuple[int, bool]]:
    """Normalize a trace into an iterator of ``(addr, is_write)`` pairs."""
    if isinstance(trace, TraceLike):
        addrs = trace.addresses
        writes = trace.is_write
        return zip(addrs.tolist(), writes.tolist())
    return iter(trace)
