"""Static import/call graph: discovery, resolution, slices, witnesses."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.check.callgraph import _dotted, build_callgraph, canonicalize
from repro.runner.fingerprint import shared_callgraph

REPO_ROOT = Path(__file__).resolve().parents[2]
# Directories whose scripts use the package (the README advertises every
# example and CI runs them); tests do not count, so code only they use
# shows up as unreached.
CONSUMER_DIRS = ("scripts", "perfbench", "benchmarks", "examples")

# Module-level functions and classes that no consumer reaches but that
# stay on purpose, each with its reason.
UNREACHED_ALLOWED = {
    "repro.gspn.analytic.MD1Prediction":
        "closed-form M/D/1 oracle the GSPN simulator tests compare against",
    "repro.gspn.analytic.membank_prediction":
        "closed-form oracle of the Figure 9 memory-bank net's tests",
    "repro.gspn.analytic.bank_contention_estimate":
        "closed-form oracle of the bank-contention tests",
    "repro.common.units.cycles_for_time":
        "the conversion the units pass names as the fix for a "
        "seconds-vs-cycles finding",
    "repro.common.tally.reset":
        "test isolation hook: clears the process's counters",
    "repro.obs.spans.reset":
        "test isolation hook: clears span records and open spans",
    "repro.obs.spans.disable":
        "test isolation hook: turns tracing back off after enable()",
    "repro.runner.fingerprint.invalidate":
        "drops memoized digests and call graphs; perfbench's pipeline "
        "workload calls it through an attribute the walk cannot follow",
}


def _pkg(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialize a synthetic package named ``pkg`` under tmp_path."""
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


class TestModuleDiscovery:
    def test_modules_and_packages_named(self, tmp_path):
        root = _pkg(tmp_path, {
            "a.py": "X = 1\n",
            "sub/b.py": "Y = 2\n",
        })
        graph = build_callgraph(root)
        assert set(graph.modules) == {"pkg", "pkg.a", "pkg.sub", "pkg.sub.b"}

    def test_unparseable_file_becomes_hole_not_crash(self, tmp_path):
        root = _pkg(tmp_path, {"bad.py": "def broken(:\n"})
        graph = build_callgraph(root)
        assert "pkg.bad" in graph.modules
        holes = graph.slice_holes({"pkg.bad"})
        assert holes and "unparseable" in holes[0][2]


class TestImportEdges:
    def test_absolute_and_from_imports_resolve(self, tmp_path):
        root = _pkg(tmp_path, {
            "a.py": "import pkg.b\nfrom pkg.sub import c\n",
            "b.py": "",
            "sub/c.py": "",
        })
        graph = build_callgraph(root)
        assert graph.modules["pkg.a"].imports == {"pkg.b", "pkg.sub.c"}
        assert graph.import_resolution == 1.0

    def test_relative_import_resolves(self, tmp_path):
        root = _pkg(tmp_path, {
            "sub/a.py": "from . import b\nfrom ..top import T\n",
            "sub/b.py": "",
            "top.py": "T = 1\n",
        })
        graph = build_callgraph(root)
        assert "pkg.sub.b" in graph.modules["pkg.sub.a"].imports
        assert "pkg.top" in graph.modules["pkg.sub.a"].imports

    def test_function_scope_import_counts_as_edge(self, tmp_path):
        # Lazy imports still execute when the function runs, so they are
        # slice edges like any other.
        root = _pkg(tmp_path, {
            "a.py": "def f():\n    from pkg import b\n    return b.X\n",
            "b.py": "X = 1\n",
        })
        graph = build_callgraph(root)
        assert "pkg.b" in graph.module_slice("pkg.a")

    def test_missing_target_is_unresolved(self, tmp_path):
        root = _pkg(tmp_path, {"a.py": "import pkg.nope\n"})
        graph = build_callgraph(root)
        assert graph.modules["pkg.a"].unresolved_imports
        assert graph.import_resolution < 1.0

    def test_external_imports_are_not_holes(self, tmp_path):
        root = _pkg(tmp_path, {"a.py": "import os\nimport numpy as np\n"})
        graph = build_callgraph(root)
        assert graph.modules["pkg.a"].unresolved_imports == []
        assert graph.modules["pkg.a"].external_imports == {"os", "numpy"}


class TestModuleSlice:
    def _graph(self, tmp_path):
        return build_callgraph(_pkg(tmp_path, {
            "entry.py": "from pkg.models import run\n",
            "models/core.py": "from pkg.common import util\n",
            "models/__init__.py": "from pkg.models.core import run\n",
            "common/util.py": "",
            "exporter.py": "import json\n",
            "other/stuff.py": "from pkg.exporter import x\n",
        }))

    def test_closure_includes_ancestor_packages(self, tmp_path):
        graph = self._graph(tmp_path)
        got = graph.module_slice("pkg.entry")
        assert got == {
            "pkg", "pkg.entry", "pkg.models", "pkg.models.core",
            "pkg.common", "pkg.common.util",
        }

    def test_unrelated_modules_are_outside(self, tmp_path):
        graph = self._graph(tmp_path)
        got = graph.module_slice("pkg.entry")
        assert "pkg.exporter" not in got
        assert "pkg.other.stuff" not in got

    def test_unknown_entry_raises(self, tmp_path):
        graph = self._graph(tmp_path)
        try:
            graph.module_slice("pkg.nope")
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError")

    def test_dynamic_import_is_a_hole(self, tmp_path):
        root = _pkg(tmp_path, {
            "a.py": "import importlib\n"
                    "def load(name):\n"
                    "    return importlib.import_module(name)\n",
        })
        graph = build_callgraph(root)
        holes = graph.slice_holes(graph.module_slice("pkg.a"))
        assert [(m, w) for m, _, w in holes] == \
            [("pkg.a", "dynamic import via importlib.import_module")]


class TestCallResolution:
    def test_cross_module_call_resolves(self, tmp_path):
        root = _pkg(tmp_path, {
            "a.py": "from pkg.b import helper\n"
                    "def top():\n    return helper()\n",
            "b.py": "def helper():\n    return 1\n",
        })
        graph = build_callgraph(root)
        edges = dict(graph.edges)["pkg.a.top"]
        assert ("pkg.b.helper", 3) in edges

    def test_reexport_canonicalizes_to_defining_module(self, tmp_path):
        root = _pkg(tmp_path, {
            "models/__init__.py": "from pkg.models.core import run\n",
            "models/core.py": "def run():\n    return 0\n",
            "a.py": "from pkg import models\n"
                    "def go():\n    return models.run()\n",
        })
        graph = build_callgraph(root)
        assert canonicalize(graph, "pkg.models.run") == "pkg.models.core.run"
        assert ("pkg.models.core.run", 3) in graph.edges["pkg.a.go"]

    def test_self_method_call_resolves_to_sibling(self, tmp_path):
        root = _pkg(tmp_path, {
            "a.py": "class Sim:\n"
                    "    def step(self):\n        return self.fire()\n"
                    "    def fire(self):\n        return 1\n",
        })
        graph = build_callgraph(root)
        assert ("pkg.a.Sim.fire", 3) in graph.edges["pkg.a.Sim.step"]

    def test_local_callable_is_dynamic_dispatch(self, tmp_path):
        root = _pkg(tmp_path, {
            "a.py": "def apply(fn):\n    return fn()\n",
        })
        graph = build_callgraph(root)
        assert graph.edges["pkg.a.apply"] == []


class TestReachabilityWitness:
    def test_witness_walks_chain_back_to_entry(self, tmp_path):
        root = _pkg(tmp_path, {
            "entry.py": "from pkg.mid import middle\n"
                        "def main():\n    return middle()\n",
            "mid.py": "from pkg.leaf import leafy\n"
                      "def middle():\n    return leafy()\n",
            "leaf.py": "def leafy():\n    return 42\n",
        })
        graph = build_callgraph(root)
        parents = graph.reachable(["pkg.entry.main"])
        assert "pkg.leaf.leafy" in parents
        chain = graph.witness(parents, "pkg.leaf.leafy")
        assert len(chain) == 3
        assert chain[0].startswith("pkg.entry.main")
        assert "[entry point]" in chain[0]
        assert "called from pkg.mid.middle" in chain[2]

    def test_unreachable_function_not_in_parents(self, tmp_path):
        root = _pkg(tmp_path, {
            "entry.py": "def main():\n    return 0\n",
            "island.py": "def alone():\n    return 1\n",
        })
        graph = build_callgraph(root)
        parents = graph.reachable(["pkg.entry.main"])
        assert "pkg.island.alone" not in parents
        assert graph.witness(parents, "pkg.island.alone") == ()


class TestNonUtf8Source:
    """A module that is not UTF-8 is reported like an unparseable one by
    every pass that reads source, and degrades the slices through it."""

    def _pkg(self, tmp_path: Path) -> Path:
        root = _pkg(tmp_path, {"entry.py": """
            from pkg.latin import helper

            def experiment():
                return helper()
        """})
        (root / "latin.py").write_bytes(
            "# caf\u00e9\ndef helper():\n    return 1\n".encode("latin-1"))
        return root

    def test_every_source_reader_reports_it(self, tmp_path):
        from repro.check.deps import _DepsAnalysis, check_deps
        from repro.check.lints import lint_paths
        from repro.check.units import check_units
        from repro.runner.fingerprint import slice_fingerprint

        root = self._pkg(tmp_path)
        graph = build_callgraph(root)
        latin = graph.modules["pkg.latin"]
        assert "unparseable module" in latin.dynamic_sites[0][1]
        # The graph holds no facts of the module for a deps rule to fire
        # on, so its suppression reader is asked directly.
        assert not _DepsAnalysis(graph, {})._allowed(latin, 1, "module-rng")
        lints = lint_paths([root])
        assert [(f.rule, f.severity, f.location) for f in lints.findings] == [
            ("io", "error", str(root / "latin.py"))]
        entries = {"exp": "pkg.entry.experiment"}
        deps = check_deps(root, entry_points=entries)
        assert deps.info["slices_degraded"] == 1
        assert any("pkg.latin" in f.message for f in deps.findings)
        check_units(root, entry_points=entries)  # reads latin.py too
        sliced = slice_fingerprint("pkg.entry.experiment", root)
        assert sliced.kind == "tree"
        assert "unparseable module" in sliced.reason


class TestRealPackage:
    def test_meets_resolution_floor(self):
        # Acceptance bar from the issue: >= 95% of intra-package imports
        # statically resolved on the shipped tree.
        graph = build_callgraph()
        assert graph.import_resolution >= 0.95
        assert len(graph.modules) > 80
        assert not any(m.unresolved_imports for m in graph.modules.values())

    def test_no_dynamic_imports_in_shipped_tree(self):
        graph = build_callgraph()
        assert not any(m.dynamic_sites for m in graph.modules.values())


def _imported_modules(path: Path, modules: dict) -> set[str]:
    """Modules of the graph that the file at ``path`` imports."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names.intersection(modules)


class TestShippedTreeReachability:
    def test_every_module_reached_by_a_real_consumer(self):
        graph = shared_callgraph()
        entries = {"repro.__main__"}
        for directory in CONSUMER_DIRS:
            for path in sorted((REPO_ROOT / directory).glob("*.py")):
                entries |= _imported_modules(path, graph.modules)
        reached: set[str] = set()
        for entry in entries:
            reached |= graph.module_slice(entry)
        unreached = sorted(set(graph.modules) - reached)
        assert not unreached, (
            f"modules no real consumer imports: {', '.join(unreached)}")


class _NameClosure:
    """Which module-level ``def``/``class`` of the package does any
    consumer reach by name?

    A node is one module-level function or class, methods and nested
    code included, so a reached class reaches all its methods.  Every
    ``Name``/``Attribute`` load inside a node (decorators, defaults,
    call arguments, registry entries, annotations) is a reference,
    resolved through the module's imports and then through package
    ``__init__`` re-exports by :func:`canonicalize`.  The roots are every
    module body (the statements outside its defs and classes; import
    lines and ``__all__`` strings hold no loads) and every package name
    a consumer script imports or uses.
    """

    def __init__(self) -> None:
        self.graph = shared_callgraph()
        self.nodes: dict[str, tuple[str, ast.stmt]] = {}
        bodies: dict[str, list[ast.stmt]] = {}
        for name, info in self.graph.modules.items():
            bodies[name] = []
            for stmt in ast.parse(info.path.read_text()).body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    self.nodes[f"{name}.{stmt.name}"] = (name, stmt)
                else:
                    bodies[name].append(stmt)
        roots: set[str] = set()
        for name, stmts in bodies.items():
            roots |= self._refs(stmts, self.graph.modules[name].reexports, name)
        for directory in CONSUMER_DIRS:
            for path in sorted((REPO_ROOT / directory).glob("*.py")):
                roots |= self._consumer_refs(path)
        self.reached: set[str] = set()
        todo = sorted(roots)
        while todo:
            key = todo.pop()
            if key not in self.reached:
                self.reached.add(key)
                module, node = self.nodes[key]
                table = self.graph.modules[module].reexports
                todo.extend(self._refs([node], table, module) - self.reached)

    def _resolve(self, table: dict[str, str], module: str | None,
                 dotted: str) -> str | None:
        head, _, rest = dotted.partition(".")
        if head in table:
            base = table[head]
        elif module is not None and f"{module}.{head}" in self.nodes:
            base = f"{module}.{head}"
        else:
            return None
        parts = canonicalize(self.graph,
                             f"{base}.{rest}" if rest else base).split(".")
        for cut in range(len(parts), 0, -1):
            key = ".".join(parts[:cut])
            if key in self.nodes:
                return key
        return None

    def _refs(self, nodes, table: dict[str, str],
              module: str | None) -> set[str]:
        found = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Name, ast.Attribute)) \
                        and isinstance(sub.ctx, ast.Load):
                    dotted = _dotted(sub)
                    key = dotted and self._resolve(table, module, dotted)
                    if key:
                        found.add(key)
        return found

    def _consumer_refs(self, path: Path) -> set[str]:
        tree = ast.parse(path.read_text(), str(path))
        package = self.graph.package
        table: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    if head == package:
                        table[alias.asname or head] = \
                            alias.name if alias.asname else head
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and not node.level \
                    and node.module.split(".")[0] == package:
                for alias in node.names:
                    table[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
        imported = {self._resolve(table, None, local) for local in table}
        return (imported - {None}) | self._refs([tree], table, None)

    def where(self, key: str) -> str:
        module, node = self.nodes[key]
        path = self.graph.modules[module].path.relative_to(
            self.graph.root.parent)
        return f"{key} ({path}:{node.lineno})"


@pytest.fixture(scope="module")
def closure() -> _NameClosure:
    return _NameClosure()


class TestShippedTreeNameClosure:
    def test_every_definition_reached_by_a_real_consumer(self, closure):
        unreached = sorted(set(closure.nodes) - closure.reached
                           - set(UNREACHED_ALLOWED))
        assert not unreached, (
            "module-level definitions no consumer reaches (delete them, "
            "or allowlist them with a reason):\n  "
            + "\n  ".join(closure.where(key) for key in unreached))

    def test_allowlist_names_only_unreached_definitions(self, closure):
        stale = sorted(key for key in UNREACHED_ALLOWED
                       if key not in closure.nodes or key in closure.reached)
        assert not stale, (
            f"allowlisted but missing or reached: {', '.join(stale)}")
        assert all(UNREACHED_ALLOWED.values())
