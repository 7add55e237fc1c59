"""The deps pass: seed-flow mutants, state/input rules, slice audit."""

import textwrap
from pathlib import Path

from repro.check.deps import DEPS_RULES, check_deps


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


def _run(tmp_path, files, entries):
    return check_deps(_pkg(tmp_path, files), entry_points=entries)


class TestSeededMutant:
    """The acceptance mutant: a module-level Generator threaded through a
    helper must be caught, with the call chain from the experiment entry
    point as witness."""

    FILES = {
        "helpers.py": """
            import numpy as np

            _RNG = np.random.default_rng(0)

            def draw():
                return _RNG.random()
        """,
        "entry.py": """
            from pkg.helpers import draw

            def experiment():
                return draw()
        """,
    }

    def _result(self, tmp_path):
        return _run(tmp_path, self.FILES,
                    {"exp": "pkg.entry.experiment"})

    def test_module_level_generator_is_an_error(self, tmp_path):
        result = self._result(tmp_path)
        rules = [f.rule for f in result.errors]
        assert "module-rng" in rules
        assert "unthreaded-rng" in rules

    def test_module_rng_witness_chains_back_to_entry(self, tmp_path):
        result = self._result(tmp_path)
        finding = next(f for f in result.errors if f.rule == "module-rng")
        assert finding.trace, finding
        assert "[entry point]" in finding.trace[0]
        assert "pkg.entry.experiment" in finding.trace[0]
        assert "pkg.helpers.draw" in finding.trace[1]
        assert "_RNG" in finding.trace[-1]

    def test_unthreaded_use_names_the_offending_generator(self, tmp_path):
        result = self._result(tmp_path)
        finding = next(f for f in result.errors if f.rule == "unthreaded-rng")
        assert "pkg.helpers._RNG" in finding.message
        assert ".random()" in finding.message
        assert finding.trace and "[entry point]" in finding.trace[0]

    def test_imported_generator_is_caught_cross_module(self, tmp_path):
        result = _run(tmp_path, {
            "helpers.py": "import numpy as np\n"
                          "_RNG = np.random.default_rng(0)\n",
            "entry.py": "from pkg.helpers import _RNG\n"
                        "def experiment():\n"
                        "    return _RNG.integers(0, 10)\n",
        }, {"exp": "pkg.entry.experiment"})
        unthreaded = [f for f in result.errors if f.rule == "unthreaded-rng"]
        assert len(unthreaded) == 1
        assert "pkg.helpers._RNG" in unthreaded[0].message


class TestThreadedRngIsClean:
    def test_parameter_and_local_generators_pass(self, tmp_path):
        result = _run(tmp_path, {
            "entry.py": """
                import numpy as np

                def experiment(seed):
                    rng = np.random.default_rng(seed)
                    return helper(rng)

                def helper(rng):
                    return rng.normal()
            """,
        }, {"exp": "pkg.entry.experiment"})
        assert result.errors == [], [f.render() for f in result.errors]

    def test_instance_generator_is_not_flagged(self, tmp_path):
        result = _run(tmp_path, {
            "entry.py": """
                class Sim:
                    def __init__(self, rng):
                        self.rng = rng
                    def step(self):
                        return self.rng.random()
            """,
        }, {})
        assert result.errors == []


class TestSeedDrop:
    def test_unread_seed_parameter_is_warned(self, tmp_path):
        result = _run(tmp_path, {
            "entry.py": """
                def experiment(seed=0):
                    return 42
            """,
        }, {"exp": "pkg.entry.experiment"})
        drops = [f for f in result.warnings if f.rule == "seed-drop"]
        assert len(drops) == 1
        assert "seed" in drops[0].message
        assert drops[0].severity == "warning"

    def test_read_seed_parameter_is_fine(self, tmp_path):
        result = _run(tmp_path, {
            "entry.py": """
                def experiment(seed=0):
                    return seed + 1
            """,
        }, {"exp": "pkg.entry.experiment"})
        assert [f for f in result.findings if f.rule == "seed-drop"] == []


class TestMutableGlobal:
    FILES = {
        "state.py": """
            _MEMO = {}

            def remember(key, value):
                _MEMO[key] = value
                _MEMO.update({})
        """,
        "entry.py": """
            from pkg.state import remember

            def experiment():
                remember("a", 1)
        """,
    }

    def test_reachable_mutation_is_warned_with_witness(self, tmp_path):
        result = _run(tmp_path, self.FILES,
                      {"exp": "pkg.entry.experiment"})
        found = [f for f in result.warnings if f.rule == "mutable-global"]
        assert len(found) == 1
        assert "_MEMO" in found[0].message
        assert found[0].trace and "[entry point]" in found[0].trace[0]

    def test_unreachable_mutation_is_not_flagged(self, tmp_path):
        result = _run(tmp_path, self.FILES, {})  # no entry points
        assert [f for f in result.findings if f.rule == "mutable-global"] == []


class TestUntrackedInput:
    def test_env_and_file_reads_on_experiment_path_warned(self, tmp_path):
        result = _run(tmp_path, {
            "entry.py": """
                import os

                def experiment():
                    mode = os.environ.get("MODE")
                    data = open("data.txt").read()
                    return mode, data
            """,
        }, {"exp": "pkg.entry.experiment"})
        rules = [f.rule for f in result.warnings]
        assert rules.count("untracked-input") == 2
        messages = " ".join(
            f.message for f in result.warnings if f.rule == "untracked-input")
        assert "os.environ" in messages
        assert "reads a file" in messages

    def test_unreachable_env_read_is_silent(self, tmp_path):
        result = _run(tmp_path, {
            "config.py": """
                import os

                def load():
                    return os.environ.get("X")
            """,
            "entry.py": "def experiment():\n    return 1\n",
        }, {"exp": "pkg.entry.experiment"})
        assert [f for f in result.findings if f.rule == "untracked-input"] == []


class TestSliceAudit:
    def test_dynamic_import_degrades_the_experiment_slice(self, tmp_path):
        result = _run(tmp_path, {
            "entry.py": """
                import importlib

                def experiment(name):
                    return importlib.import_module(name)
            """,
        }, {"exp": "pkg.entry.experiment"})
        degr = [f for f in result.warnings if f.rule == "unresolvable-edge"]
        assert len(degr) == 1
        assert degr[0].location == "experiment:exp"
        assert "whole-tree hash" in degr[0].message
        assert result.info["slices_degraded"] == 1

    def test_clean_slice_reports_stats_without_warning(self, tmp_path):
        result = _run(tmp_path, {
            "entry.py": "def experiment():\n    return 1\n",
        }, {"exp": "pkg.entry.experiment"})
        assert [f for f in result.findings if f.rule == "unresolvable-edge"] == []
        assert result.info["slices_degraded"] == 0
        assert result.info["entry_points"] == 1


class TestEntryPointValidation:
    def test_unknown_entry_point_is_warned(self, tmp_path):
        result = _run(tmp_path, {
            "entry.py": "def experiment():\n    return 1\n",
        }, {"ghost": "pkg.entry.missing_fn"})
        warned = [f for f in result.warnings if f.rule == "entry-point"]
        assert len(warned) == 1
        assert "ghost" in warned[0].message


class TestSuppression:
    def test_allow_comment_on_binding_line_suppresses(self, tmp_path):
        result = _run(tmp_path, {
            "state.py": "import numpy as np\n"
                        "_RNG = np.random.default_rng(0)"
                        "  # repro: allow(module-rng)\n",
        }, {})
        assert result.findings == [], [f.render() for f in result.findings]

    def test_stale_deps_suppressions_are_reported(self, tmp_path):
        # Each pass polices its own rules' comments: the two deps-rule
        # comments that excuse nothing are this pass's to report, the
        # units one is not.
        root = _pkg(tmp_path, {"entry.py": """
            CACHE = {}  # repro: allow(mutable-global)

            def experiment(seed):  # repro: allow(seed-drop)
                return seed + 1

            def scale(x):
                return x * 2  # repro: allow(unit-mix)
        """})
        result = check_deps(root, entry_points={"exp": "pkg.entry.experiment"})
        assert [(f.rule, f.severity, f.location) for f in result.findings] == [
            ("unused-suppression", "warning", "pkg/entry.py:2"),
            ("unused-suppression", "warning", "pkg/entry.py:4"),
        ]
        assert "allow(mutable-global)" in result.findings[0].message
        assert "allow(seed-drop)" in result.findings[1].message
        from repro.check.units import check_units

        units = check_units(root, entry_points={})
        assert [(f.rule, f.location) for f in units.findings] == [
            ("unused-suppression", "pkg/entry.py:8")]


class TestRealPackage:
    def test_shipped_tree_has_zero_errors(self):
        # The tentpole acceptance bar: the pass runs clean on the repo
        # (warnings allowed, zero errors), with the import-resolution
        # floor met and every registry entry point resolved.
        result = check_deps()
        assert result.errors == [], [f.render() for f in result.errors]
        resolution = float(result.info["import_resolution"].rstrip("%")) / 100
        assert resolution >= 0.95
        # 11 paper experiments + the 2 checked-in sweeps.
        assert result.info["entry_points"] == 13
        assert [f for f in result.findings if f.rule == "entry-point"] == []

    def test_sweep_bases_join_the_entry_points(self):
        # Every checked-in sweep is a root, under its registered name.
        from repro.analysis.registry import SPECS
        from repro.check.deps import registry_entry_points

        roots = registry_entry_points()
        sweeps = {name for name in SPECS if name.startswith("sweep:")}
        assert {"sweep:micro", "sweep:fig7-line-bank"} <= sweeps
        for name in sweeps:
            (task, *_) = SPECS[name].tasks()
            assert roots[name] == task.entry_point() == \
                "repro.sweep.points.icache_point"

    def test_rule_namespace_is_stable(self):
        assert DEPS_RULES == (
            "module-rng", "unthreaded-rng", "seed-drop", "mutable-global",
            "untracked-input", "unresolvable-edge", "entry-point",
        )
