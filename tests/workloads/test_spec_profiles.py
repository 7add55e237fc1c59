"""Tests that the proxy suite reproduces the paper's Section 5.2-5.4
claims — these are the load-bearing calibration checks for Figures 7/8."""

import pytest

from repro.caches import (
    direct_mapped_miss_rate,
    proposed_dcache,
    proposed_icache,
    set_assoc_miss_flags,
)
from repro.common.params import CacheGeometry
from repro.common.units import KB
from repro.uniproc.measurement import measure_conventional, measure_integrated
from repro.workloads.spec import (
    ALL_NAMES,
    SPEC_FP_NAMES,
    SPEC_INT_NAMES,
    all_proxies,
    get_proxy,
)
from tests.uniproc.reference_measurement import (
    reference_conventional,
    reference_integrated,
)

TRACE_LEN = 60_000


def _icache_rates(name):
    trace = get_proxy(name).instruction_trace(TRACE_LEN, seed=1)
    proposed = proposed_icache()
    proposed.run(trace)
    conv = {
        size: direct_mapped_miss_rate(trace.addresses, CacheGeometry(size * KB, 32, 1))
        for size in (8, 16, 64)
    }
    return proposed.stats.miss_rate, conv


def _dcache_rates(name):
    trace = get_proxy(name).data_trace(TRACE_LEN, seed=1)
    plain = proposed_dcache(with_victim=False)
    plain.run(trace)
    vict = proposed_dcache(with_victim=True)
    vict.run(trace)
    dm16 = direct_mapped_miss_rate(trace.addresses, CacheGeometry(16 * KB, 32, 1))
    w16 = float(
        set_assoc_miss_flags(trace.addresses, CacheGeometry(16 * KB, 32, 2)).mean()
    )
    dm64 = direct_mapped_miss_rate(trace.addresses, CacheGeometry(64 * KB, 32, 1))
    return plain.stats.miss_rate, vict.stats.miss_rate, dm16, w16, dm64


class TestRegistry:
    def test_nineteen_benchmarks(self):
        assert len(ALL_NAMES) == 19

    def test_int_fp_split_matches_table2(self):
        assert len(SPEC_INT_NAMES) == 8
        assert len(SPEC_FP_NAMES) == 10

    def test_get_proxy_unknown_name(self):
        with pytest.raises(KeyError):
            get_proxy("999.nope")

    def test_all_proxies_build_traces(self):
        for proxy in all_proxies():
            assert len(proxy.data_trace(2000, seed=0)) == 2000
            assert len(proxy.instruction_trace(2000, seed=0)) == 2000

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_short_length_gives_exactly_that_many_refs(self, name):
        # At tiny lengths a builder's length-scaled sources shrink; each
        # must keep at least one reference, or a mix whose blocks all
        # come from an empty source yields no trace at all.
        proxy = get_proxy(name)
        for seed in range(3):
            for length in range(1, 51):
                assert len(proxy.data_trace(length, seed=seed)) == length
                assert len(proxy.instruction_trace(length, seed=seed)) == length

    @pytest.mark.parametrize("name, trace_len, seed", [
        ("141.apsi", 1, 2), ("124.m88ksim", 2, 0), ("124.m88ksim", 3, 2),
    ])
    def test_short_measurements(self, name, trace_len, seed):
        proxy = get_proxy(name)
        assert (measure_integrated(proxy, trace_len, seed)
                == reference_integrated(proxy, trace_len, seed))
        assert (measure_conventional(proxy, trace_len, seed)
                == reference_conventional(proxy, trace_len, seed))

    def test_base_cpi_ranges(self):
        # Integer codes near 1; FP codes up to ~1.8 (paper Table 3 cpu column).
        for proxy in all_proxies():
            cpi = proxy.base_cpi()
            assert 1.0 <= cpi < 1.9
            if proxy.category == "int":
                assert cpi < 1.1


class TestICacheClaims:
    """Section 5.2."""

    def test_tight_loop_benchmarks_fit_8kb(self):
        # "applu, compress, swim, mgrid, ijpeg run very tight code loops
        # that almost entirely fit an 8KByte cache."
        for name in ("110.applu", "129.compress", "102.swim", "107.mgrid",
                     "132.ijpeg"):
            prop, conv = _icache_rates(name)
            assert prop < 0.002, name

    def test_proposed_beats_conventional_twice_the_size_almost_always(self):
        # "For almost all of the applications, the proposed cache has a
        # lower miss rate than conventional I-caches of over twice the size."
        wins = 0
        checked = 0
        for name in ALL_NAMES:
            if name == "125.turb3d":
                continue  # the paper's own exception
            prop, conv = _icache_rates(name)
            checked += 1
            if prop <= conv[16]:
                wins += 1
        assert wins >= checked - 1

    def test_fpppp_dramatic_long_line_win(self):
        # Paper: factor 11.2 vs same-size conventional, 8.2 vs twice the size.
        prop, conv = _icache_rates("145.fpppp")
        assert conv[8] / prop > 6.0
        assert conv[16] / prop > 4.0

    def test_turb3d_is_the_only_loser(self):
        # "The only application to produce a higher miss rate on the
        # proposed architecture was 125.turb3d" (loop/callee aliasing).
        prop, conv = _icache_rates("125.turb3d")
        assert prop > conv[8] * 1.5

    def test_perl_high_but_below_conventional_same_size(self):
        prop, conv = _icache_rates("134.perl")
        assert prop > 0.004  # "surprisingly high"
        assert prop < conv[8]  # "still lower than the equivalent conventional"

    def test_gcc_in_the_64kb_neighbourhood(self):
        # Paper: gcc's proposed-cache miss rate is "within 27% of those of
        # a 64KByte conventional I-cache".  Our proxy lands somewhat below
        # the 64 KB conventional instead of slightly above it (recorded in
        # EXPERIMENTS.md); the check pins it to that neighbourhood.
        prop, conv = _icache_rates("126.gcc")
        assert conv[64] / 5 < prop < conv[16]


class TestDCacheClaims:
    """Sections 5.3 and 5.4."""

    def test_mgrid_long_lines_win_big(self):
        # "over a factor of ten lower for mgrid ... than a conventional
        # direct-mapped D-cache of the same capacity".
        plain, vict, dm16, w16, dm64 = _dcache_rates("107.mgrid")
        assert dm16 / plain > 8.0

    def test_hydro2d_long_lines_win(self):
        plain, vict, dm16, w16, dm64 = _dcache_rates("104.hydro2d")
        assert dm16 / plain > 5.0

    @pytest.mark.parametrize("name", ["101.tomcatv", "102.swim", "103.su2cor"])
    def test_colliding_stream_benchmarks_punish_long_lines(self, name):
        # "the 512-Byte line size increases the conflict misses by almost a
        # factor of five over a conventional cache of the same size".
        plain, vict, dm16, w16, dm64 = _dcache_rates(name)
        assert plain > dm16 * 2.5, name

    @pytest.mark.parametrize("name", ["101.tomcatv", "103.su2cor"])
    def test_victim_rescues_colliding_streams(self, name):
        # "the victim cache absorbed the conflict misses reducing the miss
        # rate to approximately that of a conventional 2-way 16KByte cache".
        plain, vict, dm16, w16, dm64 = _dcache_rates(name)
        assert vict < plain / 3
        assert vict < w16 * 1.5

    @pytest.mark.parametrize("name", ["102.swim", "146.wave5", "130.li"])
    def test_victim_two_to_five_fold_cut(self, name):
        # "for three other applications the miss rate was reduced between
        # two and five-fold".
        plain, vict, dm16, w16, dm64 = _dcache_rates(name)
        assert plain / vict > 1.9, name

    def test_go_victim_helps_but_modestly(self):
        # "the victim cache helps reduce the miss rate by 25%, [but] it does
        # not have the capacity to absorb the conflicts" for go.
        plain, vict, dm16, w16, dm64 = _dcache_rates("099.go")
        assert 1.05 < plain / vict < 2.0
        assert plain > dm16  # long lines are a net loss for go

    def test_victim_beats_16kb_direct_mapped_in_all_but_one(self):
        # "In all but one application the combined D-cache and victim cache
        # has a lower miss rate than the 16KByte direct-mapped data cache."
        losses = []
        for name in ALL_NAMES:
            plain, vict, dm16, w16, dm64 = _dcache_rates(name)
            if vict > dm16:
                losses.append(name)
        assert len(losses) <= 2, losses
