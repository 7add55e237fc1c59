"""Per-level statistics of the conventional reference system's hierarchy.

Section 5.5 models a conventional CPU with split 16 KB first-level caches
in front of a unified 256 KB second-level cache and dual-banked memory.
:class:`HierarchyStats` records which level served the references so the
GSPN processor model can be dialed with per-level hit probabilities;
:func:`repro.uniproc.measurement.measure_conventional` fills it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.common.stats import RatioStat


class ServiceLevel(IntEnum):
    """Which level of the hierarchy satisfied a reference."""

    L1 = 1
    L2 = 2
    MEMORY = 3


@dataclass
class HierarchyStats:
    """Per-level service counts plus load/store split at L1."""

    l1_loads: RatioStat = field(default_factory=RatioStat)
    l1_stores: RatioStat = field(default_factory=RatioStat)
    l2: RatioStat = field(default_factory=RatioStat)

    @property
    def accesses(self) -> int:
        return self.l1_loads.total + self.l1_stores.total

    @property
    def l1_hit_rate(self) -> float:
        total = self.accesses
        hits = self.l1_loads.hits + self.l1_stores.hits
        return hits / total if total else 0.0

    @property
    def l1_miss_rate(self) -> float:
        return 1.0 - self.l1_hit_rate if self.accesses else 0.0

    @property
    def l2_local_hit_rate(self) -> float:
        """Hit rate of the L2 among references that missed L1."""
        return self.l2.hit_rate

    def service_fractions(self) -> dict[ServiceLevel, float]:
        """Fraction of all references served by each level."""
        total = self.accesses
        if not total:
            return {level: 0.0 for level in ServiceLevel}
        l1_hits = self.l1_loads.hits + self.l1_stores.hits
        return {
            ServiceLevel.L1: l1_hits / total,
            ServiceLevel.L2: self.l2.hits / total,
            ServiceLevel.MEMORY: self.l2.misses / total,
        }

