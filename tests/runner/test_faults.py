"""Fault-injection plans: parsing, matching, determinism."""

import pytest

from repro.faults import (
    ENV_INJECT,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    parse_fault_entry,
)


class TestParsing:
    def test_label_kind(self):
        spec = parse_fault_entry("figure7/126.gcc=crash")
        assert spec == FaultSpec("figure7/126.gcc", "crash")

    def test_label_may_contain_equals(self):
        spec = parse_fault_entry(
            "sweep:figure7/line_bytes=256,num_banks=4=hang")
        assert spec.pattern == "sweep:figure7/line_bytes=256,num_banks=4"
        assert spec.kind == "hang"

    @pytest.mark.parametrize("bad", [
        "no-equals", "=crash", "x=", "x=unknown", "x=crash:zero",
        "x=crash:0", "x=crash:1", "x=corrupt",
    ])
    def test_bad_entries_rejected(self, bad):
        with pytest.raises(FaultPlanError):
            parse_fault_entry(bad)

    def test_plan_parse_skips_blank_entries(self):
        plan = FaultPlan.parse(["a=crash", "  ", ""])
        assert len(plan.specs) == 1

    def test_from_env(self):
        plan = FaultPlan.from_env({ENV_INJECT: "a=crash, b=raise"})
        assert [s.kind for s in plan.specs] == ["crash", "raise"]
        assert not FaultPlan.from_env({})


class TestMatching:
    def test_exact_label(self):
        plan = FaultPlan.parse(["figure7/126.gcc=crash"])
        assert plan.fault_for("figure7/126.gcc") == "crash"
        assert plan.fault_for("figure7/102.swim") is None

    def test_glob_matches_every_shard(self):
        plan = FaultPlan.parse(["figure7/*=hang"])
        assert plan.fault_for("figure7/126.gcc") == "hang"
        assert plan.fault_for("figure8/126.gcc") is None

    def test_first_match_wins(self):
        plan = FaultPlan.parse(["t/1=crash", "t/*=raise"])
        assert plan.fault_for("t/1") == "crash"
        assert plan.fault_for("t/2") == "raise"

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.parse(["t=crash"])

