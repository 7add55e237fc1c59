import pytest

from repro.caches.column_buffer import proposed_icache
from repro.caches.set_assoc import SetAssociativeCache
from repro.common.errors import ConfigError
from repro.common.params import CacheGeometry
from repro.common.rng import make_rng
from repro.common.units import KB
from repro.trace.code import AliasedCallPair, CodeProfile, CodeWalker


class TestCodeProfileValidation:
    def test_rejects_hot_bigger_than_code(self):
        with pytest.raises(ConfigError):
            CodeProfile(code_bytes=4096, hot_bytes=8192)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigError):
            CodeProfile(code_bytes=8192, hot_bytes=4096, hot_fraction=1.5)

    def test_rejects_zero_sizes(self):
        with pytest.raises(ConfigError):
            CodeProfile(code_bytes=0, hot_bytes=0)


class TestCodeWalker:
    def test_exact_length(self):
        walker = CodeWalker(CodeProfile(code_bytes=64 * KB, hot_bytes=8 * KB))
        trace = walker.generate(10_000, make_rng(0))
        assert len(trace) == 10_000

    def test_addresses_are_instruction_aligned(self):
        walker = CodeWalker(CodeProfile(code_bytes=64 * KB, hot_bytes=8 * KB))
        trace = walker.generate(5_000, make_rng(0))
        assert (trace.addresses % 4 == 0).all()

    def test_stays_in_code_footprint(self):
        profile = CodeProfile(code_bytes=32 * KB, hot_bytes=8 * KB)
        walker = CodeWalker(profile, base=0x10000)
        trace = walker.generate(20_000, make_rng(1))
        assert trace.addresses.min() >= 0x10000
        # Episodes may run past their start but stay near the footprint.
        assert trace.addresses.max() < 0x10000 + profile.code_bytes + 64 * KB

    def test_instruction_stream_is_read_only(self):
        walker = CodeWalker(CodeProfile(code_bytes=16 * KB, hot_bytes=8 * KB))
        trace = walker.generate(1_000, make_rng(0))
        assert not trace.is_write.any()

    def test_reproducible(self):
        walker = CodeWalker(CodeProfile(code_bytes=64 * KB, hot_bytes=8 * KB))
        a = walker.generate(5_000, make_rng(9))
        b = walker.generate(5_000, make_rng(9))
        assert a.addresses.tolist() == b.addresses.tolist()


class TestEmergentCacheBehaviour:
    """The code walker must reproduce the qualitative Figure 7 phenomena."""

    def test_tight_loops_fit_8kb_cache(self):
        profile = CodeProfile(
            code_bytes=16 * KB, hot_bytes=4 * KB, hot_fraction=1.0, mean_trips=100
        )
        trace = CodeWalker(profile).generate(100_000, make_rng(2))
        cache = proposed_icache()
        stats = cache.run(trace)
        assert stats.miss_rate < 0.002

    def test_long_lines_beat_short_lines_on_straightline_code(self):
        """fpppp-style giant straight-line code: 512 B lines give far fewer
        misses than 32 B lines at the same 8 KB capacity."""
        profile = CodeProfile(
            code_bytes=48 * KB,
            hot_bytes=48 * KB,
            loop_fraction=0.1,
            run_bytes=12 * KB,
            mean_trips=4,
        )
        trace = CodeWalker(profile).generate(150_000, make_rng(3))
        long_line = proposed_icache()
        short_line = SetAssociativeCache(CacheGeometry(8 * KB, 32, 1))
        long_stats = long_line.run(trace)
        short_stats = SetAssociativeCache(CacheGeometry(8 * KB, 32, 1)).run(trace)
        assert long_stats.miss_rate < short_stats.miss_rate / 4

    def test_aliased_call_pair_hurts_long_lines(self):
        """turb3d's pathology: loop and callee share a 512 B line slot but
        occupy distinct 32 B lines, so only the long-line cache thrashes."""
        # Callee bytes 8 KB above the loop body, adjacent mod-8KB ranges:
        # distinct 32 B lines, same 512 B line.
        alias = AliasedCallPair(
            loop_addr=0, callee_addr=8 * KB + 256, loop_bytes=192, callee_bytes=192,
            fraction=0.9,
        )
        profile = CodeProfile(
            code_bytes=64 * KB, hot_bytes=8 * KB, aliased=alias, mean_trips=50
        )
        trace = CodeWalker(profile).generate(120_000, make_rng(4))
        long_line = proposed_icache()
        long_stats = long_line.run(trace)
        short_stats = SetAssociativeCache(CacheGeometry(8 * KB, 32, 1)).run(trace)
        assert long_stats.miss_rate > short_stats.miss_rate * 2
