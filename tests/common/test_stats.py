import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.stats import RatioStat


class TestRatioStat:
    def test_rates(self):
        ratio = RatioStat()
        for hit in (True, True, False, True):
            ratio.record(hit)
        assert ratio.hit_rate == pytest.approx(0.75)
        assert ratio.miss_rate == pytest.approx(0.25)
        assert ratio.misses == 1

    def test_empty_is_zero(self):
        assert RatioStat().hit_rate == 0.0
        assert RatioStat().miss_rate == 0.0

    def test_merge(self):
        a = RatioStat(hits=3, total=4)
        b = RatioStat(hits=1, total=6)
        merged = a.merge(b)
        assert merged.hits == 4
        assert merged.total == 10

    @given(st.lists(st.booleans(), max_size=100))
    def test_hit_plus_miss_is_total(self, flags):
        ratio = RatioStat()
        for flag in flags:
            ratio.record(flag)
        assert ratio.hits + ratio.misses == ratio.total
        if flags:
            assert ratio.hit_rate + ratio.miss_rate == pytest.approx(1.0)
