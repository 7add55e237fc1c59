import pytest

from repro.coherence.inc import InterNodeCache
from repro.common.errors import ConfigError
from repro.common.units import MB


class TestGeometry:
    def test_default_is_seven_way(self):
        inc = InterNodeCache(1 * MB)
        assert inc.ways == 7
        assert inc.num_sets == 4096
        assert inc.data_capacity_bytes == 4096 * 7 * 32

    def test_fresh_cache_holds_no_set_lists(self):
        inc = InterNodeCache(1 * MB)
        assert not inc._sets
        assert not inc.probe(0x1000)
        assert not inc.contains(0x2000)
        inc.invalidate(0x3000)
        assert not inc._sets
        inc.install(0x1000)
        assert len(inc._sets) == 1

    def test_rejects_bad_reservation(self):
        with pytest.raises(ConfigError):
            InterNodeCache(100)


class TestBehaviour:
    def test_probe_miss_then_install_then_hit(self):
        inc = InterNodeCache(1 * MB)
        assert not inc.probe(0x1000)
        inc.install(0x1000)
        assert inc.probe(0x1000)
        assert inc.hit_rate == 0.5

    def test_seven_aliases_coexist_eighth_evicts(self):
        inc = InterNodeCache(1 * MB)
        stride = inc.num_sets * 32  # same set each time
        evicted = []
        inc._on_evict = evicted.append
        for i in range(8):
            inc.install(i * stride)
        assert evicted == [0]
        assert not inc.contains(0)
        assert all(inc.contains(i * stride) for i in range(1, 8))

    def test_lru_within_set(self):
        inc = InterNodeCache(1 * MB)
        stride = inc.num_sets * 32
        for i in range(7):
            inc.install(i * stride)
        inc.probe(0)  # make block 0 MRU
        inc.install(7 * stride)  # evicts block 1 (stride)
        assert inc.contains(0)
        assert not inc.contains(stride)

    def test_invalidate(self):
        inc = InterNodeCache(1 * MB)
        inc.install(0x40)
        inc.invalidate(0x40)
        assert not inc.contains(0x40)

    def test_install_is_idempotent(self):
        inc = InterNodeCache(1 * MB)
        inc.install(0x40)
        inc.install(0x40)
        assert inc.installs == 1

    def test_reset(self):
        inc = InterNodeCache(1 * MB)
        inc.install(0x40)
        inc.probe(0x40)
        inc.reset()
        assert inc.probes == 0
        assert not inc.contains(0x40)
