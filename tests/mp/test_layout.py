import pytest

from repro.common.errors import ConfigError
from repro.mp.layout import NODE_REGION_BYTES, Layout


class TestLayout:
    def test_home_of_region(self):
        layout = Layout(4)
        assert layout.home_of(0) == 0
        assert layout.home_of(NODE_REGION_BYTES) == 1
        assert layout.home_of(3 * NODE_REGION_BYTES + 100) == 3

    def test_home_rejects_out_of_range(self):
        layout = Layout(2)
        with pytest.raises(ConfigError):
            layout.home_of(5 * NODE_REGION_BYTES)

    def test_alloc_places_in_owner_region(self):
        layout = Layout(4)
        addr = layout.alloc(2, 4096)
        assert layout.home_of(addr) == 2

    def test_alloc_alignment_and_disjointness(self):
        layout = Layout(2)
        a = layout.alloc(0, 100, align=64)
        b = layout.alloc(0, 100, align=64)
        assert a % 64 == 0 and b % 64 == 0
        assert b >= a + 100

    def test_region_exhaustion(self):
        layout = Layout(1, region_bytes=4096)
        layout.alloc(0, 4000)
        with pytest.raises(ConfigError):
            layout.alloc(0, 1000)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigError):
            Layout(0)
