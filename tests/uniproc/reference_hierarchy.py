"""The object-oriented two-level hierarchy, kept as an oracle.

:class:`TwoLevelHierarchy` replays references one at a time through an
L1 :class:`~repro.caches.set_assoc.SetAssociativeCache` in front of a
(possibly shared) unified L2 and reports which level served each one.
:func:`conventional_hierarchies` builds the Section 5.5 pair that share
one L2.  :mod:`tests.uniproc.reference_measurement` replays the
conventional measurement through them, and the fast shared-L2 merge of
:mod:`repro.uniproc.measurement` must match it.
"""

from __future__ import annotations

from repro.caches.base import TraceLike, iter_trace
from repro.caches.hierarchy import HierarchyStats, ServiceLevel
from repro.caches.set_assoc import SetAssociativeCache
from repro.common.params import CacheGeometry, ConventionalSystemParams


class TwoLevelHierarchy:
    """An L1 in front of a (possibly shared) unified L2.

    For the split-cache conventional system, build two hierarchies sharing
    one L2 via the ``l2`` argument.
    """

    def __init__(
        self,
        l1_geometry: CacheGeometry,
        l2_geometry: CacheGeometry | None = None,
        l2: SetAssociativeCache | None = None,
    ) -> None:
        if (l2 is None) == (l2_geometry is None):
            raise ValueError("provide exactly one of l2_geometry or l2")
        self.l1 = SetAssociativeCache(l1_geometry)
        self.l2 = l2 if l2 is not None else SetAssociativeCache(l2_geometry)
        self.stats = HierarchyStats()

    def access(self, addr: int, write: bool = False) -> ServiceLevel:
        l1_hit = self.l1.access(addr, write)
        (self.stats.l1_stores if write else self.stats.l1_loads).record(l1_hit)
        if l1_hit:
            return ServiceLevel.L1
        l2_hit = self.l2.access(addr, write)
        self.stats.l2.record(l2_hit)
        return ServiceLevel.L2 if l2_hit else ServiceLevel.MEMORY

    def run(self, trace: TraceLike) -> HierarchyStats:
        for addr, write in iter_trace(trace):
            self.access(addr, write)
        return self.stats

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()
        self.stats = HierarchyStats()


def conventional_hierarchies(
    params: ConventionalSystemParams | None = None,
) -> tuple[TwoLevelHierarchy, TwoLevelHierarchy]:
    """(instruction, data) hierarchies sharing one unified L2."""
    params = params or ConventionalSystemParams()
    shared_l2 = SetAssociativeCache(params.l2)
    ihier = TwoLevelHierarchy(params.l1i, l2=shared_l2)
    dhier = TwoLevelHierarchy(params.l1d, l2=shared_l2)
    return ihier, dhier
