"""Per-level statistics of the conventional reference system's hierarchy.

Section 5.5 models a conventional CPU with split 16 KB first-level caches
in front of a unified 256 KB second-level cache and dual-banked memory.
:class:`HierarchyStats` records which level served the references so the
GSPN processor model can be dialed with per-level hit probabilities;
:func:`repro.uniproc.measurement.measure_conventional` fills it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.stats import RatioStat


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

