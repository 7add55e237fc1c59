import pytest

from repro.caches.hierarchy import ServiceLevel
from repro.common.params import CacheGeometry, ConventionalSystemParams
from repro.common.units import KB
from repro.trace.stream import ReferenceTrace
from tests.uniproc.reference_hierarchy import (
    TwoLevelHierarchy,
    conventional_hierarchies,
)


class TestTwoLevel:
    def test_requires_exactly_one_l2_spec(self):
        geom = CacheGeometry(8 * KB, 32, 1)
        with pytest.raises(ValueError):
            TwoLevelHierarchy(geom)  # neither

    def test_cold_miss_goes_to_memory(self):
        hier = TwoLevelHierarchy(
            CacheGeometry(8 * KB, 32, 1), CacheGeometry(256 * KB, 32, 1)
        )
        assert hier.access(0x100) == ServiceLevel.MEMORY

    def test_l1_hit_after_fill(self):
        hier = TwoLevelHierarchy(
            CacheGeometry(8 * KB, 32, 1), CacheGeometry(256 * KB, 32, 1)
        )
        hier.access(0x100)
        assert hier.access(0x100) == ServiceLevel.L1

    def test_l1_conflict_served_by_l2(self):
        hier = TwoLevelHierarchy(
            CacheGeometry(8 * KB, 32, 1), CacheGeometry(256 * KB, 32, 1)
        )
        hier.access(0)
        hier.access(8 * KB)  # L1 conflict, fills L2
        assert hier.access(0) == ServiceLevel.L2

    def test_service_fractions_sum_to_one(self):
        hier = TwoLevelHierarchy(
            CacheGeometry(8 * KB, 32, 1), CacheGeometry(256 * KB, 32, 1)
        )
        trace = ReferenceTrace.reads([i * 32 for i in range(100)] * 3)
        hier.run(trace)
        fractions = hier.stats.service_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_reset(self):
        hier = TwoLevelHierarchy(
            CacheGeometry(8 * KB, 32, 1), CacheGeometry(256 * KB, 32, 1)
        )
        hier.access(0)
        hier.reset()
        assert hier.stats.accesses == 0
        assert hier.access(0) == ServiceLevel.MEMORY


class TestConventionalPair:
    def test_shares_one_l2(self):
        ihier, dhier = conventional_hierarchies()
        assert ihier.l2 is dhier.l2

    def test_instruction_fill_visible_to_data_side(self):
        ihier, dhier = conventional_hierarchies(ConventionalSystemParams())
        ihier.access(0x4000)
        dhier.l1.reset()  # ensure D-L1 cold
        assert dhier.access(0x4000) == ServiceLevel.L2
