"""Span exporter (Chrome trace-event JSON) and the per-stage rollup."""

import json

from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.spans import SpanRecord, aggregate_stages


def _records():
    return [
        SpanRecord("task/figure9", 1_000_000, 4_000_000, 42,
                   {"gspn_firings": 800}),
        SpanRecord("gspn/run/membank", 1_500_000, 3_000_000, 42,
                   {"gspn_firings": 800}),
        SpanRecord("cache/run/SetAssociativeCache", 9_000_000, 1_000_000,
                   43, {"cache_refs": 5000}),
    ]


class TestChromeTrace:
    def test_event_structure(self):
        doc = chrome_trace(_records())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ts", "dur", "pid", "tid"}
        by_name = {e["name"]: e for e in events}
        gspn = by_name["gspn/run/membank"]
        assert gspn["cat"] == "gspn"
        assert gspn["ts"] == 1500.0  # ns -> microseconds
        assert gspn["dur"] == 3000.0
        assert gspn["pid"] == gspn["tid"] == 42
        assert gspn["args"] == {"gspn_firings": 800}

    def test_sorted_by_pid_then_time(self):
        doc = chrome_trace(list(reversed(_records())))
        keys = [(e["pid"], e["ts"]) for e in doc["traceEvents"]]
        assert keys == sorted(keys)

    def test_write_roundtrip(self, tmp_path):
        out = tmp_path / "deep" / "trace.json"
        write_chrome_trace(out, _records())
        loaded = json.loads(out.read_text())
        assert len(loaded["traceEvents"]) == 3


class TestAggregateStages:
    def test_groups_by_name_and_sums(self):
        records = _records() + [
            SpanRecord("gspn/run/membank", 20_000_000, 1_000_000, 43,
                       {"gspn_firings": 200}),
        ]
        stages = aggregate_stages(records)
        membank = stages["gspn/run/membank"]
        assert membank["count"] == 2
        assert membank["wall_s"] == (3_000_000 + 1_000_000) / 1e9
        assert membank["counters"]["gspn_firings"] == 1000
        assert membank["per_sec"]["gspn_firings"] == 1000 / 0.004

    def test_zero_duration_stage_has_zero_rate(self):
        stages = aggregate_stages(
            [SpanRecord("instant", 0, 0, 1, {"cache_refs": 5})]
        )
        assert stages["instant"]["per_sec"]["cache_refs"] == 0.0

