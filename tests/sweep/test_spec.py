"""Sweep-spec validation: every named rule, plus expansion semantics."""

import json

import pytest

from repro.sweep.spec import (
    SPEC_RULES,
    SWEEPS_DIR,
    SweepSpecError,
    load_spec,
    parse_spec,
    discover_specs,
)


def good_table(**overrides):
    table = {
        "name": "demo",
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
        # Every sweep minimises the same objectives; a spec sets none.
        assert rule_of(
            good_table(objectives=[{"metric": "cpi"}])
        ) == "unknown-field"

    def test_bad_name_characters(self):
        assert rule_of(good_table(name="no spaces!")) == "bad-name"

    def test_unknown_base(self):
        # There is one point function, so a spec names no base.
        assert rule_of(good_table(base="figure7")) == "unknown-field"

    def test_bad_mode(self):
        # Every spec is a grid; there is no mode to choose.
        assert rule_of(good_table(mode="list")) == "unknown-field"

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

    def test_line_shorter_than_a_sub_block(self):
        # A 16-byte line is a power of two but cannot hold one column
        # buffer sub-block, so every such point would fail in a worker.
        with pytest.raises(SweepSpecError, match="line_bytes") as excinfo:
            parse_spec(good_table(axes={"line_bytes": [16]}))
        assert excinfo.value.rule == "bad-value"

    def test_bad_latency_profile(self):
        assert rule_of(
            good_table(axes={"line_bytes": [256],
                             "latency_profile": ["sram-0ns"]})
        ) == "bad-value"

    def test_repeated_axis_value_is_duplicate(self):
        assert rule_of(
            good_table(axes={"line_bytes": [256, 256]})
        ) == "duplicate-configuration"

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
            'name = "demo"\n[axes]\nline_bytes = [256, 512]\n'
        )
        spec = load_spec(path)
        assert spec.name == "demo"

    def test_load_json(self, tmp_path):
        # Specs are TOML only; a JSON file is refused, not guessed at.
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(good_table()))
        with pytest.raises(SweepSpecError) as excinfo:
            load_spec(path)
        assert excinfo.value.rule == "bad-spec"

    def test_filename_must_match_sweep_name(self, tmp_path):
        path = tmp_path / "other.toml"
        path.write_text(
            'name = "demo"\n[axes]\nline_bytes = [256]\n'
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

    def test_resolve_checked_in_name(self):
        # A checked-in name resolves through the registry, as
        # ``sweep:<name>``, to its spec file in the source tree.
        from repro.analysis.registry import SPECS

        assert SPECS["sweep:micro"].sweep == load_spec(SWEEPS_DIR / "micro.toml")

    def test_parse_error_names_the_file(self, tmp_path):
        path = tmp_path / "demo.toml"
        path.write_text('name = "demo"\n[axes]\nline_bytes = []\n')
        with pytest.raises(SweepSpecError) as excinfo:
            load_spec(path)
        assert excinfo.value.rule == "empty-axis"
        assert str(path) in str(excinfo.value)

    def test_checked_in_specs_are_valid(self):
        # The repo's own sweeps must parse under the current validator.
        specs = discover_specs()
        assert {p.stem for p in specs} >= {"micro", "fig7-line-bank"}
        for path in specs:
            spec = load_spec(path)
            assert spec.configs()
