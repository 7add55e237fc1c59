"""Small statistics helpers shared by the simulators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RatioStat:
    """Hits/total ratio with safe division, used for miss/hit rates."""

    hits: int = 0
    total: int = 0

    def record(self, hit: bool) -> None:
        self.total += 1
        if hit:
            self.hits += 1

    @property
    def misses(self) -> int:
        return self.total - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.total else 0.0

    def merge(self, other: "RatioStat") -> "RatioStat":
        return RatioStat(self.hits + other.hits, self.total + other.total)
