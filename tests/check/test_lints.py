"""Simulation-discipline lints: one fixture per rule, plus suppression."""

import textwrap

from repro.check.lints import LINT_RULES, lint_paths, lint_source


def rules_of(source: str) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source))]


class TestGlobalRng:
    def test_stdlib_random_flagged(self):
        assert rules_of("""
            import random
            x = random.random()
        """) == ["global-rng"]

    def test_stdlib_random_seed_flagged(self):
        assert "global-rng" in rules_of("""
            import random
            random.seed(42)
        """)

    def test_numpy_module_rng_flagged_through_alias(self):
        assert rules_of("""
            import numpy as np
            x = np.random.rand(3)
        """) == ["global-rng"]

    def test_from_numpy_import_random_flagged(self):
        assert rules_of("""
            from numpy import random as npr
            npr.seed(0)
        """) == ["global-rng"]

    def test_generator_api_allowed(self):
        assert rules_of("""
            import numpy as np
            rng = np.random.default_rng(42)
            g = np.random.Generator(np.random.PCG64(1))
        """) == []

    def test_member_import_of_randrange_flagged(self):
        assert rules_of("""
            from random import randrange
            x = randrange(4)
        """) == ["global-rng"]

    def test_unrelated_random_name_not_flagged(self):
        assert rules_of("""
            def pick(random):
                return random.choice
        """) == []


class TestWallClock:
    def test_time_time_flagged(self):
        assert rules_of("""
            import time
            t = time.time()
        """) == ["wall-clock"]

    def test_perf_counter_member_import_flagged(self):
        assert rules_of("""
            from time import perf_counter
            t = perf_counter()
        """) == ["wall-clock"]

    def test_datetime_now_flagged(self):
        assert rules_of("""
            from datetime import datetime
            stamp = datetime.now()
        """) == ["wall-clock"]

    def test_time_sleep_not_flagged(self):
        assert rules_of("""
            import time
            time.sleep(0.1)
        """) == []


class TestFloatEq:
    def test_eq_against_float_literal_flagged(self):
        assert rules_of("x = 1.5\nif x == 0.3: pass\n") == ["float-eq"]

    def test_neq_flagged(self):
        assert rules_of("y = 0.0\nz = y != 2.5\n") == ["float-eq"]

    def test_integer_comparison_allowed(self):
        assert rules_of("x = 3\nif x == 3: pass\n") == []

    def test_less_than_float_allowed(self):
        assert rules_of("x = 1.5\nif x < 0.3: pass\n") == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        assert rules_of("def f(a=[]): pass\n") == ["mutable-default"]

    def test_dict_call_default_flagged(self):
        assert rules_of("def f(*, a=dict()): pass\n") == ["mutable-default"]

    def test_none_default_allowed(self):
        assert rules_of("def f(a=None, b=(), c=0): pass\n") == []


class TestBroadExcept:
    def test_bare_except_swallow_flagged(self):
        assert rules_of("""
            try:
                risky()
            except:
                pass
        """) == ["broad-except"]

    def test_except_exception_swallow_flagged(self):
        assert rules_of("""
            try:
                risky()
            except Exception:
                result = None
        """) == ["broad-except"]

    def test_except_base_exception_in_tuple_flagged(self):
        assert rules_of("""
            try:
                risky()
            except (ValueError, BaseException):
                result = None
        """) == ["broad-except"]

    def test_reraise_allowed(self):
        assert rules_of("""
            try:
                risky()
            except Exception:
                cleanup()
                raise
        """) == []

    def test_raise_from_allowed(self):
        assert rules_of("""
            try:
                risky()
            except Exception as exc:
                raise RuntimeError("wrapped") from exc
        """) == []

    def test_logging_call_allowed(self):
        assert rules_of("""
            try:
                risky()
            except Exception as exc:
                log.warning("recovering from %s", exc)
        """) == []

    def test_print_allowed(self):
        assert rules_of("""
            try:
                risky()
            except Exception as exc:
                print(exc)
        """) == []

    def test_narrow_except_allowed(self):
        assert rules_of("""
            try:
                risky()
            except (OSError, ValueError):
                result = None
        """) == []

    def test_allow_comment_on_handler_line_suppresses(self):
        assert rules_of("""
            try:
                risky()
            except Exception:  # repro: allow(broad-except)
                result = None
        """) == []

    def test_flagged_on_the_handler_line(self):
        findings = lint_source(
            "try:\n    risky()\nexcept Exception:\n    pass\n"
        )
        assert len(findings) == 1
        assert findings[0].location.endswith(":3")


class TestSuppression:
    def test_allow_comment_suppresses_on_its_line(self):
        assert rules_of("""
            import time
            t = time.time()  # repro: allow(wall-clock)
        """) == []

    def test_allow_of_other_rule_does_not_suppress(self):
        # The finding survives, and the misdirected suppression is
        # itself reported as unused.
        assert rules_of("""
            import time
            t = time.time()  # repro: allow(float-eq)
        """) == ["wall-clock", "unused-suppression"]

    def test_allow_accepts_rule_list(self):
        assert rules_of("""
            import time, random
            t = time.time() + random.random()  # repro: allow(wall-clock, global-rng)
        """) == []

    def test_allow_on_other_line_does_not_suppress(self):
        assert rules_of("""
            import time  # repro: allow(wall-clock)
            t = time.time()
        """) == ["wall-clock", "unused-suppression"]


class TestSuppressionValidation:
    def test_unknown_rule_is_warned(self):
        findings = lint_source(
            "import time\nt = time.time()  # repro: allow(wall-clok)\n"
        )
        rules = [f.rule for f in findings]
        # The typo'd suppression guards nothing: the real finding
        # surfaces AND the bogus comment is called out.
        assert "wall-clock" in rules
        assert "unknown-suppression" in rules
        unknown = next(f for f in findings if f.rule == "unknown-suppression")
        assert unknown.severity == "warning"
        assert "wall-clok" in unknown.message
        assert unknown.location.endswith(":2")

    def test_deps_rules_are_known(self):
        # The allow() namespace spans the deps pass: suppressing one of
        # its interprocedural rules is not "unknown" here.
        findings = lint_source(
            "_REGISTRY = {}  # repro: allow(mutable-global)\n"
        )
        assert findings == []

    def test_unused_lint_suppression_is_warned(self):
        findings = lint_source("x = 1  # repro: allow(wall-clock)\n")
        assert [f.rule for f in findings] == ["unused-suppression"]
        assert findings[0].severity == "warning"
        assert "wall-clock" in findings[0].message

    def test_used_suppression_is_not_warned(self):
        findings = lint_source(
            "import time\nt = time.time()  # repro: allow(wall-clock)\n"
        )
        assert findings == []

    def test_deps_suppression_is_never_called_unused(self):
        # This linter cannot see deps findings, so it must not judge
        # deps-rule suppressions as unused.
        findings = lint_source("x = []  # repro: allow(untracked-input)\n")
        assert findings == []

    def test_doc_prose_about_the_syntax_is_ignored(self):
        findings = lint_source(
            '"""Suppress with ``# repro: allow(<rule>)`` comments."""\n'
        )
        assert findings == []


class TestDocCoverage:
    def test_off_by_default(self):
        # Fragments (and every other fixture in this file) are not
        # public API; the rule must not fire unless asked.
        assert rules_of("x = 1\n") == []

    def test_module_docstring_required_when_asked(self):
        findings = lint_source("x = 1\n", require_module_doc=True)
        assert [f.rule for f in findings] == ["doc-coverage"]
        assert findings[0].location.endswith(":1")

    def test_module_docstring_satisfies(self):
        findings = lint_source('"""Documented."""\nx = 1\n',
                               require_module_doc=True)
        assert findings == []

    def test_entry_point_docstring_required(self):
        source = "def table9():\n    return 1\n"
        findings = lint_source(source, required_docs=frozenset({"table9"}))
        assert [f.rule for f in findings] == ["doc-coverage"]
        assert "table9" in findings[0].message

    def test_only_named_functions_are_required(self):
        source = "def helper():\n    return 1\n"
        assert lint_source(source,
                           required_docs=frozenset({"table9"})) == []

    def test_suppressible_like_any_rule(self):
        source = "# repro: allow(doc-coverage)\nx = 1\n"
        assert lint_source(source, require_module_doc=True) == []

    def test_suppression_not_judged_unused_when_rule_off(self):
        # Explicit-roots scans do not run doc-coverage, so they cannot
        # call its suppressions stale.
        source = '"""Doc."""  # repro: allow(doc-coverage)\nx = 1\n'
        assert lint_source(source) == []

    def test_default_scan_requires_entry_point_docs(self):
        # Both contribute: the paper experiments' entry points and the
        # sweeps' point function.
        from repro.check.lints import _entry_point_docs

        required = _entry_point_docs()
        assert "splash_figure" in required["repro.analysis.experiments"]
        assert "icache_point" in required["repro.sweep.points"]


class TestLintPaths:
    def test_source_tree_is_clean(self):
        # The acceptance bar: the shipped simulator obeys its own
        # determinism contract (modulo reviewed `# repro: allow` sites).
        result = lint_paths()
        assert result.findings == [], [f.render() for f in result.findings]
        assert result.info["files"] > 50
        assert result.info["rules"] == len(LINT_RULES)

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([tmp_path])
        assert [f.rule for f in result.findings] == ["syntax"]

    def test_explicit_roots_are_scanned(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\nrandom.seed(1)\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        result = lint_paths([tmp_path])
        assert result.info["files"] == 2
        assert [f.rule for f in result.findings] == ["global-rng"]
        # Relative to the directory that holds the root, as deps and
        # units report it.
        assert result.findings[0].location == f"{tmp_path.name}/a.py:2"

    def test_relative_imports_name_the_package_modules(self, tmp_path):
        # `from .random import helper` is the package's own module, not
        # the stdlib one; lints resolves names as the call graph does.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "random.py").write_text("def helper():\n    return 1\n")
        (pkg / "time.py").write_text("def time():\n    return 0\n")
        (pkg / "use.py").write_text(
            "from .random import helper\n"
            "from .time import time\n"
            "from . import random\n"
            "x = helper() + time() + random.helper()\n")
        (pkg / "stdlib.py").write_text("import random\nx = random.random()\n")
        result = lint_paths([pkg])
        assert result.info["files"] == 5
        assert [(f.rule, f.location) for f in result.findings] == [
            ("global-rng", "pkg/stdlib.py:2")]
