"""The span tracer: no-op fast path, nesting, tally capture, transport."""

import os
import time

import pytest

from repro import obs
from repro.common import tally


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts disabled with an empty record list."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestDisabledPath:
    def test_disabled_span_is_shared_noop(self):
        # No allocation on the disabled path: span() hands back one
        # shared singleton regardless of arguments.
        assert obs.span("a") is obs.span("b", refs=3)

    def test_disabled_span_records_nothing(self):
        with obs.span("quiet", refs=1) as sp:
            sp.add("more", 2)
        assert obs.records() == []

    def test_disabled_overhead_is_negligible(self):
        # The acceptance bar is <2% on a real run; here we bound the
        # absolute cost instead (timing a relative margin that small is
        # flaky under CI noise).  A million disabled spans should take
        # well under two seconds on any machine — ~100ns each is typical.
        started = time.perf_counter()
        for _ in range(1_000_000):
            with obs.span("hot"):
                pass
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0

    def test_enable_disable_roundtrip_sets_env(self):
        obs.enable()
        assert obs.enabled()
        assert os.environ.get(obs.ENV_FLAG) == "1"
        obs.disable()
        assert not obs.enabled()
        assert obs.ENV_FLAG not in os.environ


class TestRecording:
    def test_nesting_depth_and_close_order(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("middle"):
                with obs.span("inner"):
                    pass
        names = [r.name for r in obs.records()]
        depths = [r.depth for r in obs.records()]
        # Spans are appended as they *close*: innermost first.
        assert names == ["inner", "middle", "outer"]
        assert depths == [2, 1, 0]

    def test_timestamps_are_monotonic_and_nested(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = obs.records()
        assert inner.start_ns >= outer.start_ns
        assert inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
        assert inner.dur_ns >= 0 and outer.dur_ns >= 0

    def test_counters_from_kwargs_and_add(self):
        obs.enable()
        with obs.span("work", refs=10) as sp:
            sp.add("refs", 5)
            sp.add("extra", 2)
        (record,) = obs.records()
        assert record.counters == {"refs": 15, "extra": 2}

    def test_tally_deltas_are_captured(self):
        obs.enable()
        with obs.span("sim"):
            tally.add("gspn_firings", 1234)
        (record,) = obs.records()
        assert record.counters["gspn_firings"] == 1234

    def test_nested_spans_each_see_the_tally(self):
        # Both the inner span and its parent report the same delta —
        # which is why exporters sum event counters at depth 0 only.
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                tally.add("mp_ops", 7)
        inner, outer = obs.records()
        assert inner.counters["mp_ops"] == 7
        assert outer.counters["mp_ops"] == 7

    def test_span_survives_exception(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        (record,) = obs.records()
        assert record.name == "doomed"
        from repro.obs import spans

        assert not spans._stack  # the stack unwound cleanly


class TestTransport:
    def test_mark_since(self):
        obs.enable()
        with obs.span("keep"):
            pass
        position = obs.mark()
        with obs.span("drop"):
            pass
        assert [r.name for r in obs.since(position)] == ["drop"]
        assert [r.name for r in obs.records()] == ["keep", "drop"]

    def test_absorb_merges_foreign_records(self):
        obs.enable()
        foreign = obs.SpanRecord(
            name="task/far", start_ns=10, dur_ns=5, pid=99999, depth=0,
            counters={"cache_refs": 3},
        )
        obs.absorb([foreign])
        assert obs.records() == [foreign]
