"""Sweep-spec validation: every named rule, plus expansion semantics."""

import json
from pathlib import Path

import pytest

from repro.sweep.points import BASES
from repro.sweep.spec import (
    SPEC_RULES,
    SweepSpecError,
    load_spec,
    parse_spec,
    discover_specs,
    resolve_spec,
)

SWEEPS_DIR = Path(__file__).resolve().parents[2] / "artifacts" / "sweeps"


def good_table(**overrides):
    table = {
        "name": "demo",
        "base": "figure7",
        "axes": {"line_bytes": [256, 512], "num_banks": [4, 8]},
        "fixed": {"benchmark": "126.gcc", "trace_len": 4000},
    }
    table.update(overrides)
    return table


def rule_of(table) -> str:
    with pytest.raises(SweepSpecError) as excinfo:
        parse_spec(table)
    assert excinfo.value.rule in SPEC_RULES
    return excinfo.value.rule


class TestValidation:
    def test_good_spec_parses(self):
        spec = parse_spec(good_table())
        assert spec.name == "demo"
        assert spec.base == "figure7"
        assert spec.axis_names == ("line_bytes", "num_banks")

    def test_missing_name(self):
        table = good_table()
        del table["name"]
        assert rule_of(table) == "missing-field"

    def test_missing_axes(self):
        table = good_table()
        del table["axes"]
        assert rule_of(table) == "missing-field"

    def test_unknown_field(self):
        assert rule_of(good_table(extra=1)) == "unknown-field"

    def test_bad_name_characters(self):
        assert rule_of(good_table(name="no spaces!")) == "bad-name"

    def test_unknown_base(self):
        assert rule_of(good_table(base="figure99")) == "unknown-base"

    def test_bad_mode(self):
        assert rule_of(good_table(mode="zipper")) == "bad-mode"

    def test_unknown_axis_name(self):
        assert rule_of(
            good_table(axes={"cache_color": [1, 2]})
        ) == "unknown-axis"

    def test_empty_axis(self):
        assert rule_of(good_table(axes={"line_bytes": []})) == "empty-axis"

    def test_empty_grid_no_axes(self):
        assert rule_of(good_table(axes={})) == "empty-grid"

    def test_bad_axis_value_type(self):
        assert rule_of(
            good_table(axes={"line_bytes": ["wide"]})
        ) == "bad-value"

    def test_bad_axis_value_geometry(self):
        # 384 is positive but not a power of two; the device constructor
        # rejects it, and the spec layer surfaces that before any worker
        # would have crashed mid-sweep.
        assert rule_of(good_table(axes={"line_bytes": [384]})) == "bad-value"

    def test_bad_latency_profile(self):
        assert rule_of(
            good_table(axes={"line_bytes": [256],
                             "latency_profile": ["sram-0ns"]})
        ) == "bad-value"

    def test_list_mode_length_mismatch(self):
        assert rule_of(good_table(
            mode="list",
            axes={"line_bytes": [256, 512], "num_banks": [4, 8, 16]},
        )) == "length-mismatch"

    def test_repeated_axis_value_is_duplicate(self):
        assert rule_of(
            good_table(axes={"line_bytes": [256, 256]})
        ) == "duplicate-configuration"

    def test_list_mode_duplicate_rows(self):
        assert rule_of(good_table(
            mode="list",
            axes={"line_bytes": [256, 256], "num_banks": [4, 4]},
        )) == "duplicate-configuration"

    def test_fixed_knob_unknown(self):
        assert rule_of(
            good_table(fixed={"warp_speed": 9})
        ) == "unknown-fixed"

    def test_fixed_knob_shadowing_axis(self):
        assert rule_of(good_table(
            fixed={"line_bytes": 256, "benchmark": "126.gcc"}
        )) == "unknown-fixed"

    def test_fixed_axis_value_validated(self):
        # Pinning an axis as a fixed knob is allowed, but its value
        # still has to be legal for that axis.
        assert rule_of(good_table(
            axes={"line_bytes": [256, 512]},
            fixed={"num_banks": 3},
        )) == "bad-value"

    @pytest.mark.parametrize("knob, value", [
        ("trace_len", 0), ("trace_len", -1), ("trace_len", 2.5),
        ("trace_len", True), ("instructions", 0), ("instructions", "8000"),
    ])
    def test_fixed_count_knob_must_be_positive_int(self, knob, value):
        # A point with no references or no issued instructions would
        # still report a miss rate and a CPI.
        table = good_table()
        table["fixed"] = {**table["fixed"], knob: value}
        with pytest.raises(SweepSpecError, match=knob) as excinfo:
            parse_spec(table)
        assert excinfo.value.rule == "bad-value"

    def test_unknown_objective_metric(self):
        assert rule_of(good_table(
            objectives=[{"metric": "latency_p99"}]
        )) == "unknown-metric"

    def test_bad_objective_goal(self):
        assert rule_of(good_table(
            objectives=[{"metric": "cpi", "goal": "minimise"}]
        )) == "bad-goal"

    def test_duplicate_objective(self):
        assert rule_of(good_table(objectives=[
            {"metric": "cpi"}, {"metric": "cpi", "goal": "max"},
        ])) == "duplicate-objective"

    def test_objectives_default_from_base(self):
        spec = parse_spec(good_table())
        assert [(o.metric, o.goal) for o in spec.objectives] == [
            ("miss_rate", "min"), ("cpi", "min"), ("bank_utilization", "min"),
        ]


class TestExpansion:
    def test_grid_is_row_major_in_declaration_order(self):
        spec = parse_spec(good_table())
        labels = [c.label for c in spec.configs()]
        assert labels == [
            "line_bytes=256,num_banks=4",
            "line_bytes=256,num_banks=8",
            "line_bytes=512,num_banks=4",
            "line_bytes=512,num_banks=8",
        ]

    def test_list_mode_zips_rows(self):
        spec = parse_spec(good_table(
            mode="list",
            axes={"line_bytes": [256, 512], "num_banks": [4, 8]},
        ))
        assert [c.label for c in spec.configs()] == [
            "line_bytes=256,num_banks=4",
            "line_bytes=512,num_banks=8",
        ]

    def test_params_merge_fixed_and_axes(self):
        spec = parse_spec(good_table())
        config = spec.configs()[0]
        assert config.params == {
            "benchmark": "126.gcc", "trace_len": 4000,
            "line_bytes": 256, "num_banks": 4,
        }

    def test_expansion_is_deterministic(self):
        spec = parse_spec(good_table())
        assert spec.configs() == spec.configs()


class TestFiles:
    def test_load_toml(self, tmp_path):
        path = tmp_path / "demo.toml"
        path.write_text(
            'name = "demo"\nbase = "figure7"\n'
            '[axes]\nline_bytes = [256, 512]\n'
        )
        spec = load_spec(path)
        assert spec.name == "demo"

    def test_load_json(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(good_table()))
        assert load_spec(path).base == "figure7"

    def test_filename_must_match_sweep_name(self, tmp_path):
        path = tmp_path / "other.toml"
        path.write_text(
            'name = "demo"\nbase = "figure7"\n[axes]\nline_bytes = [256]\n'
        )
        with pytest.raises(SweepSpecError) as excinfo:
            load_spec(path)
        assert excinfo.value.rule == "bad-name"

    def test_invalid_toml_is_bad_spec(self, tmp_path):
        path = tmp_path / "demo.toml"
        path.write_text("name = [unclosed\n")
        with pytest.raises(SweepSpecError) as excinfo:
            load_spec(path)
        assert excinfo.value.rule == "bad-spec"

    def test_resolve_checked_in_name(self, tmp_path):
        (tmp_path / "demo.toml").write_text("")
        assert resolve_spec("demo", tmp_path) == tmp_path / "demo.toml"

    def test_resolve_unknown_name_raises(self, tmp_path):
        with pytest.raises(SweepSpecError) as excinfo:
            resolve_spec("ghost", tmp_path)
        assert excinfo.value.rule == "bad-spec"

    def test_checked_in_specs_are_valid(self):
        # The repo's own sweeps must parse under the current validator.
        specs = discover_specs()
        assert {p.stem for p in specs} >= {"micro", "fig7-line-bank"}
        for path in specs:
            spec = load_spec(path)
            assert spec.configs()

    def test_every_base_has_a_checked_in_spec(self):
        # A base no checked-in sweep selects is code nothing runs: keep
        # a base only while a spec under artifacts/sweeps/ uses it.
        specs = [load_spec(path) for path in discover_specs(SWEEPS_DIR)]
        used = {spec.base for spec in specs}
        assert specs and set(BASES) <= used, (
            f"bases no checked-in spec uses: "
            f"{', '.join(sorted(set(BASES) - used))}")
