import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.trace.stream import ReferenceTrace
from repro.uniproc.measurement import (
    _streams,
    measure_conventional,
    measure_integrated,
)
from repro.workloads.spec import get_proxy
from tests.uniproc.reference_measurement import (
    interleaved_blocks,
    reference_conventional,
    reference_integrated,
)

TRACE_LEN = 40_000


class TestMeasureIntegrated:
    def test_probabilities_well_formed(self):
        rates = measure_integrated(get_proxy("126.gcc"), TRACE_LEN)
        for probs in (rates.ifetch, rates.load, rates.store):
            assert 0.0 <= probs.hit <= 1.0
            assert probs.l2 == 0.0  # integrated system has no L2
            assert probs.hit + probs.mem == pytest.approx(1.0)

    def test_victim_improves_hit_rate_for_conflict_benchmark(self):
        with_v = measure_integrated(get_proxy("101.tomcatv"), TRACE_LEN,
                                    with_victim=True)
        without_v = measure_integrated(get_proxy("101.tomcatv"), TRACE_LEN,
                                       with_victim=False)
        assert with_v.dcache_miss_rate < without_v.dcache_miss_rate / 2

    def test_tight_loop_benchmark_has_high_ifetch_hit(self):
        rates = measure_integrated(get_proxy("129.compress"), TRACE_LEN)
        assert rates.ifetch.hit > 0.998

    def test_deterministic(self):
        a = measure_integrated(get_proxy("099.go"), TRACE_LEN, seed=5)
        b = measure_integrated(get_proxy("099.go"), TRACE_LEN, seed=5)
        assert a.ifetch.hit == b.ifetch.hit
        assert a.load.hit == b.load.hit


class TestMeasureConventional:
    def test_l2_fraction_present(self):
        rates = measure_conventional(get_proxy("126.gcc"), TRACE_LEN)
        assert rates.load.l2 > 0.0
        assert rates.load.hit + rates.load.l2 + rates.load.mem == pytest.approx(1.0)

    def test_shared_l2_sees_both_streams(self):
        rates = measure_conventional(get_proxy("134.perl"), TRACE_LEN)
        assert rates.ifetch.l2 > 0.0

    def test_conventional_l1_miss_rates_reasonable(self):
        rates = measure_conventional(get_proxy("107.mgrid"), TRACE_LEN)
        # mgrid streams: conventional 16 KB caches miss a few percent.
        assert 0.005 < rates.dcache_miss_rate < 0.2


class TestEngineEquivalence:
    """The vectorized measurement path must be bit-identical to the
    block-by-block object-oriented replay in
    ``tests/uniproc/reference_measurement.py`` — same MissRates, not
    just close ones."""

    @pytest.mark.parametrize("name", ["126.gcc", "101.tomcatv"])
    def test_integrated_engines_identical(self, name):
        proxy = get_proxy(name)
        fast = measure_integrated(proxy, TRACE_LEN, seed=3)
        exact = reference_integrated(proxy, TRACE_LEN, seed=3)
        assert fast == exact

    def test_integrated_without_victim_identical(self):
        proxy = get_proxy("129.compress")
        fast = measure_integrated(proxy, TRACE_LEN, with_victim=False)
        exact = reference_integrated(proxy, TRACE_LEN, with_victim=False)
        assert fast == exact

    @pytest.mark.parametrize("name", ["134.perl", "107.mgrid"])
    def test_conventional_engines_identical(self, name):
        """The shared L2 sees the two L1 miss streams merged in exact
        interleave order; any drift from the block-by-block replay shows
        up here."""
        proxy = get_proxy(name)
        fast = measure_conventional(proxy, TRACE_LEN, seed=7)
        exact = reference_conventional(proxy, TRACE_LEN, seed=7)
        assert fast == exact

    @pytest.mark.parametrize("trace_len", [1, 63, 65])
    def test_short_traces_identical(self, trace_len):
        """One reference, and a trace that ends inside or just past its
        first interleave block."""
        proxy = get_proxy("126.gcc")
        assert measure_integrated(proxy, trace_len) == \
            reference_integrated(proxy, trace_len)
        assert measure_conventional(proxy, trace_len) == \
            reference_conventional(proxy, trace_len)


def _frozen_streams(proxy, trace_len, seed):
    """The frozen block split, concatenated per cache."""
    blocks = interleaved_blocks(proxy, trace_len, seed)
    itrace = ReferenceTrace.concat([i for i, _ in blocks])
    dtrace = ReferenceTrace.concat([d for _, d in blocks])
    d_ends = np.cumsum([len(d) for _, d in blocks])
    return itrace, dtrace, d_ends


class TestClosedFormStreams:
    """The streams built in closed form against the frozen per-block
    split (126.gcc cuts 23-reference data blocks, 099.go 19)."""

    @pytest.mark.parametrize("name, trace_len", [
        ("126.gcc", 1),
        ("126.gcc", 63),  # one data block, exactly the data trace
        ("126.gcc", 64),
        ("126.gcc", 65),  # a short second data block, no wrap
        ("099.go", 63),  # the data trace is shorter than one block
        ("099.go", 65),  # exact wrap: one block covers the trace
        ("099.go", 129),  # exact wrap: two blocks cover the trace
        ("126.gcc", 20_000),
    ])
    def test_match_frozen_split(self, name, trace_len):
        proxy = get_proxy(name)
        itrace, d_addrs, d_writes, d_ends = _streams(proxy, trace_len, 3)
        frozen_i, frozen_d, frozen_ends = _frozen_streams(proxy, trace_len, 3)
        assert itrace.addresses.tolist() == frozen_i.addresses.tolist()
        assert d_addrs.tolist() == frozen_d.addresses.tolist()
        assert d_writes.tolist() == frozen_d.is_write.tolist()
        assert d_ends.tolist() == frozen_ends.tolist()
        assert measure_integrated(proxy, trace_len, seed=3) == \
            reference_integrated(proxy, trace_len, seed=3)
        assert measure_conventional(proxy, trace_len, seed=3) == \
            reference_conventional(proxy, trace_len, seed=3)


class TestStoreFreeDataStream:
    @pytest.mark.parametrize("measure", [measure_integrated,
                                         measure_conventional])
    def test_stores_take_the_load_hit_rate(self, measure):
        """At one reference the data stream holds no store, so both
        measurements give stores the load path's probabilities."""
        rates = measure(get_proxy("126.gcc"), 1)
        assert rates.store == rates.load


class TestTraceLen:
    @pytest.mark.parametrize("measure", [measure_integrated,
                                         measure_conventional])
    @pytest.mark.parametrize("trace_len", [0, -5])
    def test_non_positive_trace_len_rejected(self, measure, trace_len):
        with pytest.raises(ConfigError, match="trace_len"):
            measure(get_proxy("126.gcc"), trace_len)
