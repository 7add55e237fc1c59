"""The units pass: dimension lattice, mixing mutants, witnesses."""

import textwrap
from pathlib import Path

from repro.check.dimensions import (
    UNITS,
    combine,
    divide,
    is_pow10,
    multiply,
    suffix_dim,
    unit_comments,
)
from repro.check.units import UNITS_RULES, check_units


def _pkg(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").touch()
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        for parent in path.relative_to(root).parents:
            if str(parent) != ".":
                init = root / parent / "__init__.py"
                if not init.exists():
                    init.touch()
        path.write_text(textwrap.dedent(source))
    return root


def _run(tmp_path, files, entries, annotations=None):
    return check_units(_pkg(tmp_path, files), entry_points=entries,
                       annotations=annotations)


class TestDimensionLattice:
    def test_suffix_requires_underscore_form(self):
        assert suffix_dim("latency_ns") == UNITS["ns"]
        assert suffix_dim("line_bytes") == UNITS["bytes"]
        assert suffix_dim("clock_mhz") == UNITS["mhz"]
        assert suffix_dim("columns") is None  # merely *ends* in ns
        assert suffix_dim("ns") is None

    def test_bare_seconds_is_contractual(self):
        assert suffix_dim("seconds") == UNITS["s"]

    def test_combine_propagates_the_known_side(self):
        assert combine(UNITS["bytes"], None) == (UNITS["bytes"], False)
        assert combine(None, None) == (None, False)

    def test_combine_flags_scale_mixes_too(self):
        # ns + us is as wrong as ns + cycles: the scale is the unit.
        _, conflict = combine(UNITS["ns"], UNITS["us"])
        assert conflict

    def test_matched_time_freq_product_is_cycles(self):
        assert multiply(UNITS["ns"], UNITS["ghz"]) == (UNITS["cycles"], False)
        assert multiply(UNITS["s"], UNITS["hz"]) == (UNITS["cycles"], False)

    def test_mismatched_time_freq_product_conflicts(self):
        _, conflict = multiply(UNITS["ns"], UNITS["hz"])
        assert conflict

    def test_fraction_is_transparent_in_products(self):
        assert multiply(UNITS["fraction"], UNITS["ns"]) == (UNITS["ns"],
                                                            False)

    def test_cycles_over_freq_is_time_at_matching_scale(self):
        assert divide(UNITS["cycles"], UNITS["hz"]) == UNITS["s"]
        assert divide(UNITS["cycles"], UNITS["ghz"]) == UNITS["ns"]

    def test_same_unit_ratio_is_dimensionless(self):
        assert divide(UNITS["bytes"], UNITS["bytes"]) is None

    def test_pow10_literals_erase_but_binary_sizes_do_not(self):
        assert is_pow10(1e9)
        assert is_pow10(1000)
        assert not is_pow10(1024)
        assert not is_pow10(1)
        assert not is_pow10(True)

    def test_unit_comments_only_match_real_comments(self):
        source = (
            '"""Docs quoting # repro: unit(ns) declare nothing."""\n'
            "x = 1  # repro: unit(cycles)\n"
            'y = "# repro: unit(us)"\n'
        )
        assert unit_comments(source) == {2: "cycles"}


class TestMixingMutant:
    """One entry-point-rooted fixture firing six distinct error kinds,
    each with a call-chain witness — the acceptance mutant."""

    FILES = {
        "timing.py": """
            def hold(pause_ns):
                return pause_ns

            def wait_ns(delay_us):
                return delay_us

            def mix(latency_ns, budget_cycles, size_bytes, num_lines,
                    delay_us):
                total_ns = latency_ns + budget_cycles
                spare_bytes = size_bytes - num_lines
                if size_bytes < num_lines:
                    spare_bytes = 0
                total_bytes = num_lines
                hold(delay_us)
                return 0
        """,
        "entry.py": """
            from pkg.timing import mix, wait_ns

            def experiment():
                wait_ns(2.0)
                return mix(1.0, 2, 64, 4, 5.0)
        """,
    }

    def _result(self, tmp_path):
        return _run(tmp_path, self.FILES, {"exp": "pkg.entry.experiment"})

    def test_six_distinct_error_kinds_fire(self, tmp_path):
        result = self._result(tmp_path)
        rules = {f.rule for f in result.errors}
        assert rules == {"unit-conversion", "unit-mix", "unit-compare",
                         "unit-assign", "unit-arg", "unit-return"}

    def test_ns_plus_cycles_suggests_the_conversion_helpers(self, tmp_path):
        result = self._result(tmp_path)
        finding = next(f for f in result.errors
                       if f.rule == "unit-conversion")
        assert "cycles_for_time" in finding.message
        assert "time_for_cycles" in finding.message

    def test_every_error_has_an_entry_rooted_witness(self, tmp_path):
        result = self._result(tmp_path)
        assert result.errors
        for finding in result.errors:
            assert finding.trace, finding.render()
            assert "[entry point]" in finding.trace[0]
            assert "pkg.entry.experiment" in finding.trace[0]

    def test_us_into_ns_parameter_names_both_sides(self, tmp_path):
        result = self._result(tmp_path)
        finding = next(f for f in result.errors if f.rule == "unit-arg")
        assert "pause_ns" in finding.message
        assert "us" in finding.message

    def test_return_check_uses_the_function_name_suffix(self, tmp_path):
        result = self._result(tmp_path)
        finding = next(f for f in result.errors if f.rule == "unit-return")
        assert "wait_ns" in finding.location or "wait_ns" in finding.message


class TestInterprocedural:
    def test_return_dims_flow_through_two_call_hops(self, tmp_path):
        result = _run(tmp_path, {
            "lib.py": """
                def slow_path_ns(base_ns):
                    return base_ns

                def doubled():
                    return slow_path_ns(30.0)
            """,
            "main.py": """
                from pkg.lib import doubled

                def run(budget_cycles):
                    return budget_cycles + doubled()
            """,
        }, {"exp": "pkg.main.run"})
        rules = [f.rule for f in result.errors]
        assert rules == ["unit-conversion"]
        assert result.errors[0].trace
        assert "pkg.main.run" in result.errors[0].trace[0]

    def test_dataclass_constructor_fields_are_checked(self, tmp_path):
        result = _run(tmp_path, {
            "geom.py": """
                from dataclasses import dataclass

                @dataclass
                class Level:
                    size_bytes: int
                    latency_ns: float
            """,
            "main.py": """
                from pkg.geom import Level

                def build(num_lines):
                    return Level(size_bytes=num_lines, latency_ns=1.0)
            """,
        }, {"exp": "pkg.main.build"})
        finding = next(f for f in result.errors if f.rule == "unit-arg")
        assert "size_bytes" in finding.message
        assert "lines" in finding.message

    def test_explicit_field_annotations_reach_attribute_reads(self, tmp_path):
        result = _run(tmp_path, {
            "params.py": """
                from dataclasses import dataclass

                @dataclass
                class Latencies:
                    remote: int = 80  # repro: unit(cycles)
            """,
            "main.py": """
                from pkg.params import Latencies

                def run(latency_ns):
                    table = Latencies()
                    return latency_ns + table.remote
            """,
        }, {"exp": "pkg.main.run"})
        rules = [f.rule for f in result.errors]
        assert rules == ["unit-conversion"]


class TestConversionRules:
    def test_sound_timing_code_is_clean(self, tmp_path):
        result = _run(tmp_path, {
            "clean.py": """
                def to_cycles(latency_ns, clock_ghz):
                    busy_cycles = latency_ns * clock_ghz
                    return busy_cycles

                def scale_by_hand(delay_s):
                    delay_ns = delay_s * 1e9
                    return delay_ns

                def geometry(size_bytes, line_bytes):
                    num_lines = size_bytes // line_bytes
                    return num_lines

                def weighted(miss_fraction, penalty_cycles):
                    stall_cycles = miss_fraction * penalty_cycles
                    return stall_cycles

                def elapsed(total_cycles, clock_hz):
                    seconds = total_cycles / clock_hz
                    return seconds
            """,
        }, {})
        assert result.findings == [], [f.render() for f in result.findings]

    def test_mismatched_scale_product_is_flagged(self, tmp_path):
        result = _run(tmp_path, {
            "bad.py": """
                def broken(latency_ns, clock_hz):
                    return latency_ns * clock_hz
            """,
        }, {})
        rules = [f.rule for f in result.errors]
        assert rules == ["unit-mix"]
        assert "mismatched" in result.errors[0].message


class TestAnnotations:
    def test_registry_entries_dim_module_constants(self, tmp_path):
        result = _run(tmp_path, {
            "consts.py": "TICK = 1\n",
            "main.py": """
                from pkg.consts import TICK

                def run(budget_cycles):
                    return budget_cycles + TICK
            """,
        }, {}, annotations={"pkg.consts.TICK": "ns"})
        rules = [f.rule for f in result.errors]
        assert rules == ["unit-conversion"]

    def test_stale_and_misspelt_annotations_warn(self, tmp_path):
        result = _run(tmp_path, {
            "consts.py": "TICK = 1\nBAD = 2  # repro: unit(nanoseconds)\n",
        }, {}, annotations={"pkg.consts.TICK": "ns",
                            "pkg.consts.GONE": "ns",
                            "pkg.consts.WRONG": "parsecs"})
        messages = [f.message for f in result.findings
                    if f.rule == "unit-annotation"]
        assert any("pkg.consts.GONE" in m for m in messages)
        assert any("parsecs" in m for m in messages)
        assert any("nanoseconds" in m for m in messages)
        assert not any("pkg.consts.TICK" in m for m in messages)

    def test_inline_cast_on_assignment_is_trusted(self, tmp_path):
        result = _run(tmp_path, {
            "conv.py": """
                def runtime(instruction_count, cpi_value, clock_ghz):
                    total_cycles = instruction_count * cpi_value  # repro: unit(cycles)
                    busy_ns = total_cycles / clock_ghz
                    return busy_ns
            """,
        }, {})
        assert result.errors == [], [f.render() for f in result.errors]


class TestUnknownReturnWarning:
    FILES = {
        "api.py": """
            def fetch_ns(handle):
                return handle.read()

            def _fetch_ns(handle):
                return handle.read()

            def blessed_ns(handle):  # repro: unit(ns)
                return handle.read()
        """,
    }

    def test_public_suffixed_api_with_opaque_return_warns(self, tmp_path):
        result = _run(tmp_path, self.FILES, {})
        warnings = [f for f in result.findings
                    if f.rule == "unit-unknown-return"]
        assert len(warnings) == 1
        assert "fetch_ns" in warnings[0].message
        assert warnings[0].severity == "warning"

    def test_private_and_explicitly_blessed_functions_are_exempt(
            self, tmp_path):
        result = _run(tmp_path, self.FILES, {})
        messages = " ".join(f.message for f in result.findings)
        assert "_fetch_ns" not in messages
        assert "blessed_ns" not in messages


class TestSuppressions:
    def test_allow_comment_on_the_line_suppresses(self, tmp_path):
        result = _run(tmp_path, {
            "mix.py": """
                def mixed(latency_ns, budget_cycles):
                    return latency_ns + budget_cycles  # repro: allow(unit-conversion)
            """,
        }, {})
        assert result.findings == [], [f.render() for f in result.findings]

    def test_unused_unit_suppression_is_reported_by_this_pass(self, tmp_path):
        result = _run(tmp_path, {
            "clean.py": """
                def fine(latency_ns):
                    return latency_ns  # repro: allow(unit-mix)
            """,
        }, {})
        warnings = [f for f in result.findings
                    if f.rule == "unused-suppression"]
        assert len(warnings) == 1
        assert "allow(unit-mix)" in warnings[0].message


class TestRealPackage:
    def test_shipped_tree_has_zero_errors(self):
        # The tentpole acceptance bar: the whole simulator is
        # dimensionally clean under the suffix convention plus the
        # reviewed annotations.
        result = check_units()
        assert result.errors == [], [f.render() for f in result.errors]
        # 11 paper experiments + the 2 checked-in sweeps.
        assert result.info["entry_points"] == 13
        assert result.info["reachable_functions"] > 0
        assert result.info["seeded_names"] > 100

    def test_every_shipped_unit_suppression_carries_a_review_comment(self):
        import repro

        src = Path(repro.__file__).parent
        for path in sorted(src.rglob("*.py")):
            lines = path.read_text().splitlines()
            for i, line in enumerate(lines):
                if "allow(unit-" not in line:
                    continue
                above = lines[i - 1].strip() if i else ""
                assert above.startswith("#"), (
                    f"{path}:{i + 1}: allow(unit-...) needs a review "
                    f"comment on the preceding line")

    def test_rule_namespace_is_stable(self):
        assert UNITS_RULES == (
            "unit-mix", "unit-compare", "unit-arg", "unit-return",
            "unit-assign", "unit-conversion", "unit-unknown-return",
            "unit-annotation",
        )
