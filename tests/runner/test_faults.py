"""Fault-injection plans: parsing, matching, determinism."""

import pytest

from repro.faults import (
    ENV_INJECT,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    corrupt_payload,
    parse_fault_entry,
)


class TestParsing:
    def test_label_kind(self):
        spec = parse_fault_entry("figure7/126.gcc=crash")
        assert spec == FaultSpec("figure7/126.gcc", "crash", None)

    def test_attempt_bound(self):
        spec = parse_fault_entry("table1=raise:2")
        assert spec.times == 2

    def test_label_may_contain_equals(self):
        spec = parse_fault_entry(
            "sweep:figure7/line_bytes=256,num_banks=4=hang")
        assert spec.pattern == "sweep:figure7/line_bytes=256,num_banks=4"
        assert spec.kind == "hang"

    @pytest.mark.parametrize("bad", [
        "no-equals", "=crash", "x=", "x=unknown", "x=crash:zero",
        "x=crash:0",
    ])
    def test_bad_entries_rejected(self, bad):
        with pytest.raises(FaultPlanError):
            parse_fault_entry(bad)

    def test_plan_parse_skips_blank_entries(self):
        plan = FaultPlan.parse(["a=crash", "  ", ""])
        assert len(plan.specs) == 1

    def test_from_env(self):
        plan = FaultPlan.from_env({ENV_INJECT: "a=crash, b=raise:1"})
        assert [s.kind for s in plan.specs] == ["crash", "raise"]
        assert not FaultPlan.from_env({})


class TestMatching:
    def test_exact_label(self):
        plan = FaultPlan.parse(["figure7/126.gcc=crash"])
        assert plan.fault_for("figure7/126.gcc", 1) == "crash"
        assert plan.fault_for("figure7/102.swim", 1) is None

    def test_glob_matches_every_shard(self):
        plan = FaultPlan.parse(["figure7/*=hang"])
        assert plan.fault_for("figure7/126.gcc", 1) == "hang"
        assert plan.fault_for("figure8/126.gcc", 1) is None

    def test_times_bounds_attempts(self):
        plan = FaultPlan.parse(["t=crash:2"])
        assert plan.fault_for("t", 1) == "crash"
        assert plan.fault_for("t", 2) == "crash"
        assert plan.fault_for("t", 3) is None

    def test_unbounded_faults_every_attempt(self):
        plan = FaultPlan.parse(["t=corrupt"])
        assert all(plan.fault_for("t", n) == "corrupt" for n in (1, 5, 50))

    def test_first_match_wins(self):
        plan = FaultPlan.parse(["t=crash:1", "t=raise"])
        assert plan.fault_for("t", 1) == "crash"
        assert plan.fault_for("t", 2) == "raise"

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.parse(["t=crash"])


class TestCorruptPayload:
    def test_deterministic_and_damaging(self):
        payload = b"\x80\x05data"
        assert corrupt_payload(payload) != payload
        assert corrupt_payload(payload) == corrupt_payload(payload)
        assert len(corrupt_payload(payload)) == len(payload)

    def test_empty_payload_still_changes(self):
        assert corrupt_payload(b"") != b""
