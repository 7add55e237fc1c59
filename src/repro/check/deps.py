"""``deps`` pass: whole-program seed-flow and dependency verification.

The ``lints`` pass (:mod:`repro.check.lints`) is syntactic and
per-module: it can reject ``np.random.rand()`` on the line where it
appears, but it cannot see a ``numpy.random.Generator`` constructed at
module scope in one file and *used* three calls deep in another — the
classic way "pure function of (code, parameters, seed)" quietly breaks
while every individual module lints clean.  This pass closes that hole
with the interprocedural graph of :mod:`repro.check.callgraph`:

- **seed flow** — every stochastic call site (``.integers()``,
  ``.normal()``, ...) must draw from a generator that is a function
  parameter or a local created by ``repro.common.rng``'s
  ``make_rng``/``split_rng``; a receiver that traces to a module-level
  binding is an error (``module-rng`` for the binding,
  ``unthreaded-rng`` for the use), reported with the call chain from a
  registered experiment entry point as witness — the same
  counterexample-trace discipline as the protocol model checker.
- **state and inputs** — module-level mutable containers mutated by
  functions reachable from an entry point (``mutable-global``) and
  reachable reads of ``os.environ`` or of files (``untracked-input``)
  are warnings: each is a value that can change an experiment's output
  without changing its cache key.
- **fingerprint slices** — for every registered experiment the pass
  audits the module slice that
  :func:`repro.runner.fingerprint.slice_fingerprint` would hash; any
  static-analysis escape inside the slice (dynamic import, unresolved
  intra-package import) is reported (``unresolvable-edge``) because it
  forces that experiment back onto the whole-tree fingerprint.
- **seed hygiene** — a parameter named ``seed``/``*_seed`` that the
  function never reads is a seed dropped on the floor (``seed-drop``):
  two call sites passing different seeds get identical — and
  identically cached — results.

Findings are suppressed by the same inline ``# repro: allow(<rule>)``
comments the lint pass uses, placed on the reported line.
"""

from __future__ import annotations

from pathlib import Path

from repro.check.callgraph import (
    MODULE_BODY,
    RNG_FACTORIES,
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    canonicalize,
)
from repro.check.report import Finding, PassResult, suppressions

DEPS_RULES: tuple[str, ...] = (
    "module-rng",
    "unthreaded-rng",
    "seed-drop",
    "mutable-global",
    "untracked-input",
    "unresolvable-edge",
    "entry-point",
)

# How many witness steps / hole listings to include before truncating.
_MAX_HOLES_SHOWN = 4


def _location(graph: CallGraph, module: ModuleInfo, lineno: int) -> str:
    path = module.path
    try:
        path = path.relative_to(graph.root.parent)
    except ValueError:
        pass
    return f"{path}:{lineno}"


def _resolve_module_name(graph: CallGraph, module: ModuleInfo,
                         dotted: str) -> str | None:
    """Canonical target of a bare/dotted name read inside ``module``."""
    head, _, rest = dotted.partition(".")
    if head in module.reexports:
        base = module.reexports[head]
    elif head in module.assigns or head in module.functions \
            or head in module.classes:
        base = f"{module.name}.{head}"
    else:
        return None
    return f"{base}.{rest}" if rest else base


def _module_generators(module: ModuleInfo) -> dict[str, int]:
    """Module-scope names bound to a fresh Generator -> lineno."""
    return {
        assign.name: assign.lineno
        for assign in module.assigns.values()
        if any(call in RNG_FACTORIES for call in assign.value_calls)
    }


class _DepsAnalysis:
    def __init__(self, graph: CallGraph,
                 entry_points: dict[str, str]) -> None:
        self.graph = graph
        self.entry_points = entry_points
        self.result = PassResult("deps")
        self._suppressions: dict[str, dict[int, set[str]]] = {}
        # experiment name -> resolved entry FunctionInfo
        self.entries: dict[str, FunctionInfo] = {}
        for experiment, target in sorted(entry_points.items()):
            fn = graph.function_for(canonicalize(graph, target))
            if fn is None:
                self._find("entry-point", "warning", target,
                           f"experiment '{experiment}' declares entry point "
                           f"{target}, which the call graph cannot resolve; "
                           f"its findings have no witness and its "
                           f"fingerprint degrades to the whole tree")
            else:
                self.entries[experiment] = fn
        self.parents = graph.reachable([fn.name for fn in self.entries.values()])

    # -- plumbing ----------------------------------------------------------

    def _allowed(self, module: ModuleInfo, lineno: int, rule: str) -> bool:
        if module.name not in self._suppressions:
            try:
                source = module.path.read_text()
            except (OSError, UnicodeDecodeError):
                source = ""
            self._suppressions[module.name] = suppressions(source)
        return rule in self._suppressions[module.name].get(lineno, ())

    def _find(self, rule: str, severity: str, location: str, message: str,
              trace: tuple[str, ...] = ()) -> None:
        self.result.findings.append(
            Finding("deps", rule, severity, location, message, trace))

    def _witness(self, fn: FunctionInfo, leaf: str) -> tuple[str, ...]:
        """Entry-point call chain to ``fn`` plus a final ``leaf`` step."""
        chain = self.graph.witness(self.parents, fn.name)
        if not chain:
            return ()
        return (*chain, leaf)

    def _reachable(self, fn: FunctionInfo) -> bool:
        return fn.name in self.parents

    # -- rules -------------------------------------------------------------

    def check_module_generators(self) -> None:
        """module-rng: a Generator bound at module scope is shared state."""
        for module in self.graph.modules.values():
            for name, lineno in sorted(_module_generators(module).items()):
                if self._allowed(module, lineno, "module-rng"):
                    continue
                trace: tuple[str, ...] = ()
                for fn in module.functions.values():
                    if fn.qualname != MODULE_BODY \
                            and name in fn.global_reads \
                            and self._reachable(fn):
                        trace = self._witness(
                            fn,
                            f"{fn.name} reads module-level generator "
                            f"'{name}' (defined at "
                            f"{_location(self.graph, module, lineno)})")
                        break
                reach = ("; reachable from a registered experiment "
                         "entry point — see trace" if trace else
                         "; not reachable from any registered entry "
                         "point, but still shared process state")
                self._find(
                    "module-rng", "error",
                    _location(self.graph, module, lineno),
                    f"module-level numpy Generator '{name}' is shared "
                    f"across every experiment in the process; thread a "
                    f"Generator from repro.common.rng.make_rng/split_rng "
                    f"through call parameters instead{reach}",
                    trace)

    def check_stochastic_receivers(self) -> None:
        """unthreaded-rng: sampling from anything but a threaded local."""
        for module in self.graph.modules.values():
            generators = _module_generators(module)
            for fn in module.functions.values():
                for site in fn.stochastic:
                    head = site.receiver.split(".")[0]
                    if head == "self":
                        continue  # instance state: threaded at construction
                    if head in fn.params or head in fn.locals:
                        continue  # parameter or locally created generator
                    canonical = _resolve_module_name(
                        self.graph, module, site.receiver)
                    offender = None
                    if site.receiver in generators or head in generators:
                        offender = f"{module.name}.{head}"
                    elif canonical is not None:
                        owner_mod, _, attr = canonical.rpartition(".")
                        owner = self.graph.modules.get(owner_mod)
                        if owner is not None and attr in _module_generators(owner):
                            offender = canonical
                    if offender is None:
                        continue
                    if self._allowed(module, site.lineno, "unthreaded-rng"):
                        continue
                    trace = self._witness(
                        fn,
                        f"{fn.name} samples .{site.method}() from "
                        f"module-level generator {offender} at "
                        f"{_location(self.graph, module, site.lineno)}") \
                        if self._reachable(fn) else ()
                    self._find(
                        "unthreaded-rng", "error",
                        _location(self.graph, module, site.lineno),
                        f"stochastic call {site.receiver}.{site.method}() "
                        f"draws from module-level generator {offender} "
                        f"instead of an explicitly threaded parameter; "
                        f"seed isolation between experiments is broken",
                        trace)

    def check_seed_drops(self) -> None:
        """seed-drop: a seed parameter the function never reads."""
        for module in self.graph.modules.values():
            for fn in module.functions.values():
                if fn.qualname == MODULE_BODY:
                    continue
                for param in fn.params:
                    if param != "seed" and not param.endswith("_seed"):
                        continue
                    if param in fn.reads:
                        continue
                    if self._allowed(module, fn.lineno, "seed-drop"):
                        continue
                    self._find(
                        "seed-drop", "warning",
                        _location(self.graph, module, fn.lineno),
                        f"{fn.name}() accepts '{param}' but never reads "
                        f"it — callers passing different seeds get "
                        f"identical (and identically cached) results",
                        self._witness(fn, f"{fn.name} drops '{param}'"))

    def check_mutable_globals(self) -> None:
        """mutable-global: module state mutated on an experiment path."""
        for module in self.graph.modules.values():
            for assign in module.assigns.values():
                if not assign.mutable_literal:
                    continue
                canonical_target = f"{module.name}.{assign.name}"
                witness: tuple[str, ...] = ()
                for other in self.graph.modules.values():
                    for fn in other.functions.values():
                        if fn.qualname == MODULE_BODY or not self._reachable(fn):
                            continue
                        for name, lineno in fn.mutations:
                            head = name.split(".")[0]
                            if head in fn.params or head == "self":
                                continue
                            if head in fn.locals and other.name != module.name:
                                continue
                            resolved = _resolve_module_name(self.graph, other, name)
                            if resolved != canonical_target:
                                continue
                            if self._allowed(other, lineno, "mutable-global"):
                                continue
                            witness = self._witness(
                                fn,
                                f"{fn.name} mutates {canonical_target} at "
                                f"{_location(self.graph, other, lineno)}")
                            break
                        if witness:
                            break
                    if witness:
                        break
                if not witness:
                    continue
                if self._allowed(module, assign.lineno, "mutable-global"):
                    continue
                self._find(
                    "mutable-global", "warning",
                    _location(self.graph, module, assign.lineno),
                    f"module-level mutable '{assign.name}' is mutated by "
                    f"code reachable from an experiment entry point; "
                    f"state carried across tasks escapes the (code, "
                    f"parameters, seed) contract unless it is a pure "
                    f"cache keyed by those same inputs",
                    witness)

    def check_untracked_inputs(self) -> None:
        """untracked-input: env/file reads on an experiment path."""
        for module in self.graph.modules.values():
            for fn in module.functions.values():
                if fn.qualname == MODULE_BODY or not self._reachable(fn):
                    continue
                # One site may register several times (``os.environ.get``
                # is an attribute chain AND a call); report each line once.
                sites = sorted(
                    {(n, "reads os.environ") for n in fn.env_reads}
                    | {(n, "reads a file") for n in fn.file_reads})
                for lineno, what in sites:
                    if self._allowed(module, lineno, "untracked-input"):
                        continue
                    self._find(
                        "untracked-input", "warning",
                        _location(self.graph, module, lineno),
                        f"{fn.name} {what} on a path reachable from an "
                        f"experiment entry point; the value influences "
                        f"results but is invisible to the cache key",
                        self._witness(fn, f"{fn.name} {what} at "
                                      f"{_location(self.graph, module, lineno)}"))

    def check_slices(self) -> None:
        """unresolvable-edge: holes that degrade a slice to the tree hash."""
        degraded = 0
        sizes: list[int] = []
        for experiment, fn in sorted(self.entries.items()):
            try:
                slice_modules = self.graph.module_slice(fn.module)
            except KeyError:
                continue
            sizes.append(len(slice_modules))
            holes = self.graph.slice_holes(slice_modules)
            if not holes:
                continue
            degraded += 1
            shown = [
                f"{mod}:{line}: {what}"
                for mod, line, what in holes[:_MAX_HOLES_SHOWN]
            ]
            if len(holes) > _MAX_HOLES_SHOWN:
                shown.append(f"... {len(holes) - _MAX_HOLES_SHOWN} more")
            self._find(
                "unresolvable-edge", "warning", f"experiment:{experiment}",
                f"dependency slice of entry point {fn.name} contains "
                f"{len(holes)} statically unresolvable edge(s), so its "
                f"cache fingerprint degrades to the whole-tree hash: "
                + "; ".join(shown))
        if sizes:
            self.result.info["slice_modules"] = (
                f"{min(sizes)}-{max(sizes)}/{len(self.graph.modules)}")
            self.result.info["slices_degraded"] = degraded

    # -- driver ------------------------------------------------------------

    def run(self) -> PassResult:
        self.check_module_generators()
        self.check_stochastic_receivers()
        self.check_seed_drops()
        self.check_mutable_globals()
        self.check_untracked_inputs()
        self.check_slices()
        graph = self.graph
        self.result.info.update({
            "modules": len(graph.modules),
            "functions": len(graph.functions),
            "call_edges": sum(len(e) for e in graph.edges.values()),
            "import_resolution": f"{graph.import_resolution:.1%}",
            "call_resolution": f"{graph.call_resolution:.1%}",
            "entry_points": len(self.entries),
            "reachable_functions": len(self.parents),
        })
        self.result.findings.sort(key=lambda f: (f.rule, f.location))
        return self.result


def registry_entry_points() -> dict[str, str]:
    """All analysis roots, as static names: the registered experiments
    plus the sweep point function.

    Sweeps construct design points through :mod:`repro.sweep.points`
    without going through the experiment registry, so without this
    root a stochastic call or unit mix on a sweep-only path would sit
    in unreachable code and never earn a witness.  The root is named
    ``sweep:figure7``, like the sweep tasks, because ``figure7`` also
    names an experiment."""
    from repro.analysis.registry import entry_points

    roots = entry_points()
    roots["sweep:figure7"] = "repro.sweep.points.icache_point"
    return roots


def check_deps(root: Path | None = None,
               entry_points: dict[str, str] | None = None) -> PassResult:
    """Run the whole-program dependency pass.

    ``root`` defaults to the installed ``repro`` package, whose call
    graph is memoized with the runner's fingerprints;
    ``entry_points`` defaults to the experiment registry's declarations
    (experiment name -> dotted function name).
    """
    from repro.runner.fingerprint import shared_callgraph

    graph = shared_callgraph(root)
    if entry_points is None:
        entry_points = registry_entry_points() if root is None else {}
    return _DepsAnalysis(graph, entry_points).run()
