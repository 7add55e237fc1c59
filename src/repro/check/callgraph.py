"""Whole-program import/call graph over a Python package tree.

The substrate of the ``deps`` verification pass and of the runner's
per-experiment fingerprint slicing: a purely static (AST-level) model of
the package answering two questions the per-module lints cannot —

- *which modules can executing this entry point possibly touch?*
  (:meth:`CallGraph.module_slice` — the transitive import closure, the
  basis of :func:`repro.runner.fingerprint.slice_fingerprint`), and
- *which functions are reachable from this entry point, and through
  which call chain?* (:meth:`CallGraph.reachable` /
  :meth:`CallGraph.witness` — the counterexample chains of the seed-flow
  analysis in :mod:`repro.check.deps`).

Two builders fill the same :class:`CallGraph` and :class:`ModuleInfo`
records.  :func:`build_callgraph` parses every module, walks every
expression and resolves calls; it serves ``repro check`` alone.
:func:`import_graph` answers only the first question, for the slicer: it
parses a module the first time a lookup reaches it and walks statement
lists only, which suffices for imports, defs, classes and re-exports,
so a slice parses just its import closure.  Its one expression walk is
the full visitor, run on a module whose text names ``importlib`` or
``__import__`` to find the dynamic-import sites.

The import closure is deliberately an **over-approximation of Python's
import semantics**: an import statement anywhere in a module — module
body or function body — counts as an edge, and importing ``a.b.c``
also executes ``a/__init__.py`` and ``a/b/__init__.py``, so ancestor
packages join the slice of every member module.  Over-approximation is
what makes fingerprint slicing *safe*: a module outside the closure
provably cannot run during the entry point's execution.  Anything the
closure cannot bound statically — ``importlib`` / ``__import__`` use,
or an intra-package import that maps to no source file — is recorded on
the module (:attr:`ModuleInfo.dynamic_sites` /
:attr:`ModuleInfo.unresolved_imports`) so consumers can degrade to the
whole-tree view instead of trusting a hole.

The module is self-contained (stdlib only, no ``repro`` imports) so the
runner can load it without pulling in the verification passes.
"""

from __future__ import annotations

import ast
import unicodedata
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

# Methods that mutate their receiver in place; used to spot functions
# mutating module-level containers.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "appendleft",
    "extendleft", "sort", "reverse",
})

# numpy.random.Generator sampling methods: a call to one of these is a
# stochastic call site whose receiver must be an explicitly threaded
# generator.
STOCHASTIC_METHODS = frozenset({
    "random", "integers", "normal", "standard_normal", "uniform",
    "choice", "shuffle", "permutation", "exponential", "poisson",
    "geometric", "binomial", "lognormal", "gamma", "beta", "bytes",
    "standard_exponential", "multinomial",
})

MODULE_BODY = "<module>"


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function (or the module body)."""

    raw: str  # the call target as written, e.g. "split_rng" or "np.random.default_rng"
    resolved: str | None  # canonical dotted target, e.g. "repro.common.rng.split_rng"
    lineno: int


@dataclass(frozen=True)
class StochasticSite:
    """A ``<receiver>.<method>()`` call where ``method`` samples randomness."""

    receiver: str  # dotted receiver as written, e.g. "rng" or "self.rng"
    method: str
    lineno: int


@dataclass
class FunctionInfo:
    """Static facts about one function (or one module body)."""

    module: str
    qualname: str  # "" + name path within the module; MODULE_BODY for the body
    lineno: int
    params: tuple[str, ...] = ()
    calls: list[CallSite] = field(default_factory=list)
    stochastic: list[StochasticSite] = field(default_factory=list)
    locals: set[str] = field(default_factory=set)  # names bound in this scope
    reads: set[str] = field(default_factory=set)  # Name loads (incl. locals)
    mutations: list[tuple[str, int]] = field(default_factory=list)  # (name, line)
    env_reads: list[int] = field(default_factory=list)
    file_reads: list[int] = field(default_factory=list)
    rng_locals: set[str] = field(default_factory=set)  # names bound to a fresh Generator

    @property
    def name(self) -> str:
        """Global key: ``module.qualname`` (just module for the body)."""
        if self.qualname == MODULE_BODY:
            return self.module
        return f"{self.module}.{self.qualname}"

    @property
    def global_reads(self) -> set[str]:
        return self.reads - self.locals - set(self.params)


@dataclass
class ModuleAssign:
    """One module-scope binding: ``name = <expr>`` at the top level."""

    name: str
    lineno: int
    value_calls: tuple[str, ...]  # resolved call targets inside the value
    mutable_literal: bool  # list/dict/set literal or constructor call


@dataclass
class ModuleInfo:
    """Static facts about one module file."""

    name: str
    path: Path
    imports: set[str] = field(default_factory=set)  # intra-package module targets
    external_imports: set[str] = field(default_factory=set)  # top-level ext names
    unresolved_imports: list[tuple[int, str]] = field(default_factory=list)
    dynamic_sites: list[tuple[int, str]] = field(default_factory=list)
    import_names_total: int = 0  # intra-package imported names seen
    import_names_resolved: int = 0  # ... that mapped to a known module/member
    functions: dict[str, FunctionInfo] = field(default_factory=dict)  # by qualname
    assigns: dict[str, ModuleAssign] = field(default_factory=dict)
    classes: dict[str, list[str]] = field(default_factory=dict)  # class -> methods
    # local name -> qualified target; lets callers follow a package
    # __init__'s `from x import f` re-exports to the defining module.
    reexports: dict[str, str] = field(default_factory=dict)

    @property
    def body(self) -> FunctionInfo:
        return self.functions[MODULE_BODY]


class _ImportTable:
    """Local-name resolution for one module: what each name refers to."""

    def __init__(self) -> None:
        self.modules: dict[str, str] = {}  # local name -> module dotted path
        self.members: dict[str, str] = {}  # local name -> module.member

    def resolve(self, dotted: str) -> str | None:
        head, _, rest = dotted.partition(".")
        if head in self.modules:
            base = self.modules[head]
            return f"{base}.{rest}" if rest else base
        if head in self.members:
            base = self.members[head]
            return f"{base}.{rest}" if rest else base
        return None


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` -> "a.b.c" for pure attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _discover_modules(root: Path, package: str) -> dict[str, Path]:
    """Module dotted name -> source path for every ``*.py`` under root."""
    modules: dict[str, Path] = {}
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root)
        parts = list(rel.parts)
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][:-3]
        name = ".".join([package, *parts]) if parts else package
        modules[name] = path
    return modules


class _ImportRecorder:
    """Import-statement bookkeeping for one module, shared by the full
    visitor and the statement-level scan: intra-package edges and holes
    on the :class:`ModuleInfo`, and the local-name table."""

    def __init__(self, info: ModuleInfo, package: str,
                 known_modules: dict[str, Path]) -> None:
        self.info = info
        self.package = package
        self.known = known_modules
        self.table = _ImportTable()

    def _package_of(self) -> str:
        """The package context for relative imports in this module."""
        name = self.info.name
        if self.info.path.name == "__init__.py":
            return name
        return name.rsplit(".", 1)[0] if "." in name else name

    def _note_intra_target(self, target: str, node: ast.stmt,
                          resolved: bool) -> None:
        self.info.import_names_total += 1
        if resolved:
            self.info.import_names_resolved += 1
            self.info.imports.add(target)
        else:
            self.info.unresolved_imports.append(
                (node.lineno, target))

    def record_import(self, node: ast.Import) -> list[str]:
        """Record ``import ...``; returns the local names it binds."""
        bound = []
        for alias in node.names:
            target = alias.name
            head = target.split(".")[0]
            if head == self.package:
                self._note_intra_target(target, node, target in self.known)
            else:
                self.info.external_imports.add(head)
            if alias.asname:
                self.table.modules[alias.asname] = target
            else:
                self.table.modules[head] = head
            bound.append(alias.asname or head)
        return bound

    def record_import_from(self, node: ast.ImportFrom) -> list[str]:
        """Record ``from ... import ...``; returns the local names it binds."""
        if node.level:
            base_parts = self._package_of().split(".")
            if node.level > 1:
                base_parts = base_parts[: len(base_parts) - (node.level - 1)]
            module = ".".join(filter(None, [".".join(base_parts), node.module or ""]))
        else:
            module = node.module or ""
        head = module.split(".")[0] if module else ""
        intra = head == self.package
        bound = []
        for alias in node.names:
            if alias.name == "*":
                if intra:
                    self._note_intra_target(module, node, module in self.known)
                elif head:
                    self.info.external_imports.add(head)
                continue
            local = alias.asname or alias.name
            submodule = f"{module}.{alias.name}" if module else alias.name
            if intra:
                if submodule in self.known:
                    # `from repro.a import b` where b is a module.
                    self._note_intra_target(submodule, node, True)
                    self.table.modules[local] = submodule
                else:
                    self._note_intra_target(module, node, module in self.known)
                    self.table.members[local] = submodule
            else:
                if head:
                    self.info.external_imports.add(head)
                # Known module-valued members of external packages.
                if submodule in ("numpy.random", "os.path", "datetime.datetime"):
                    self.table.modules[local] = submodule
                else:
                    self.table.members[local] = submodule
            bound.append(local)
        return bound


class _ModuleVisitor(_ImportRecorder, ast.NodeVisitor):
    """Single pass over one module: imports, scopes, calls, assignments."""

    def __init__(self, info: ModuleInfo, package: str,
                 known_modules: dict[str, Path]) -> None:
        super().__init__(info, package, known_modules)
        self.scope_stack: list[FunctionInfo] = []
        self.class_stack: list[str] = []
        body = FunctionInfo(info.name, MODULE_BODY, 1)
        info.functions[MODULE_BODY] = body
        self._body = body

    # -- scope helpers -----------------------------------------------------

    @property
    def scope(self) -> FunctionInfo:
        return self.scope_stack[-1] if self.scope_stack else self._body

    def _qualname(self, name: str) -> str:
        parts = [*self.class_stack]
        for fn in self.scope_stack:
            parts.append(fn.qualname.rsplit(".", 1)[-1])
        parts.append(name)
        # Class names already embedded in enclosing function qualnames are
        # handled by building from the stacks in order of nesting.
        return ".".join(parts)

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self.scope.locals.update(self.record_import(node))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.scope.locals.update(self.record_import_from(node))

    # -- functions and classes ---------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qual = self._qualname(node.name)
        args = node.args
        params = tuple(
            a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        ) + tuple(a.arg for a in (args.vararg, args.kwarg) if a is not None)
        fn = FunctionInfo(self.info.name, qual, node.lineno, params=params)
        self.scope.locals.add(node.name)
        self.info.functions[qual] = fn
        if self.class_stack:
            self.info.classes.setdefault(
                ".".join(self.class_stack), []).append(node.name)
        self.scope_stack.append(fn)
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None:
                self.visit(default)
        for stmt in node.body:
            self.visit(stmt)
        self.scope_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.locals.add(node.name)
        self.info.classes.setdefault(self._qualname(node.name), [])
        self.class_stack.append(node.name)
        for base in node.bases:
            self.visit(base)
        for stmt in node.body:
            self.visit(stmt)
        self.class_stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Treat lambda bodies as part of the enclosing scope but shield
        # their parameters from the read set.
        for a in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]:
            self.scope.locals.add(a.arg)
        self.generic_visit(node)

    # -- assignments ---------------------------------------------------------

    def _value_calls(self, value: ast.AST) -> tuple[str, ...]:
        calls = []
        for sub in ast.walk(value):
            if isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted:
                    calls.append(self.table.resolve(dotted) or dotted)
        return tuple(calls)

    @staticmethod
    def _is_mutable_literal(value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in {"list", "dict", "set", "bytearray",
                                      "defaultdict", "deque", "Counter"})

    def _record_assign(self, target: ast.expr, value: ast.AST | None,
                       lineno: int) -> None:
        if isinstance(target, ast.Name):
            self.scope.locals.add(target.id)
            if not self.scope_stack and not self.class_stack \
                    and value is not None:
                self.info.assigns[target.id] = ModuleAssign(
                    name=target.id,
                    lineno=lineno,
                    value_calls=self._value_calls(value),
                    mutable_literal=self._is_mutable_literal(value),
                )
            if value is not None and self.scope_stack:
                for resolved in self._value_calls(value):
                    if resolved in RNG_FACTORIES:
                        self.scope.rng_locals.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_assign(elt, None, lineno)
        elif isinstance(target, ast.Subscript):
            base = _dotted(target.value)
            if base:
                self.scope.mutations.append((base, lineno))
        elif isinstance(target, ast.Starred):
            self._record_assign(target.value, None, lineno)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._record_assign(target, node.value, node.lineno)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self._record_assign(node.target, node.value, node.lineno)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            self.scope.reads.add(node.target.id)
            if node.target.id not in self.scope.locals:
                self.scope.mutations.append((node.target.id, node.lineno))
        else:
            base = _dotted(node.target)
            if base:
                self.scope.mutations.append((base, node.lineno))

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.scope.mutations.append((name, node.lineno))

    def visit_For(self, node: ast.For) -> None:
        self._record_assign(node.target, None, node.lineno)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._record_assign(node.target, None, getattr(node.target, "lineno", 0))
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._record_assign(item.optional_vars, None, node.lineno)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self.scope.locals.add(node.name)
        self.generic_visit(node)

    # -- reads, calls, special sites ----------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.scope.reads.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = _dotted(node)
        if dotted:
            resolved = self.table.resolve(dotted) or dotted
            if resolved == "os.environ" or resolved.startswith("os.environ."):
                self.scope.env_reads.append(node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted:
            resolved = self.table.resolve(dotted)
            site = CallSite(raw=dotted, resolved=resolved, lineno=node.lineno)
            self.scope.calls.append(site)
            canonical = resolved or dotted
            if canonical in ("os.getenv", "os.environ.get"):
                self.scope.env_reads.append(node.lineno)
            if canonical == "open" and not self.table.resolve("open"):
                self.scope.file_reads.append(node.lineno)
            if canonical in ("importlib.import_module", "__import__",
                            "importlib.reload"):
                self.info.dynamic_sites.append((node.lineno, canonical))
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            receiver = _dotted(node.func.value)
            if receiver is not None:
                if method in STOCHASTIC_METHODS:
                    self.scope.stochastic.append(
                        StochasticSite(receiver, method, node.lineno))
                if method in _MUTATING_METHODS:
                    self.scope.mutations.append((receiver, node.lineno))
                if method in ("read_text", "read_bytes"):
                    self.scope.file_reads.append(node.lineno)
        self.generic_visit(node)


# The statement lists of a node, which is all the import scan descends
# into: an import, def or class can only sit in one of these.
_STATEMENT_LISTS = frozenset({"body", "orelse", "finalbody", "handlers",
                              "cases"})


class _StatementScan(_ImportRecorder):
    """Statement-level pass over one module: imports anywhere, defs and
    classes under the qualnames :class:`_ModuleVisitor` gives them, and
    re-exports — no expressions, so no calls, reads or dynamic sites."""

    def scan(self, stmts: list[ast.AST], classes: tuple[str, ...] = (),
             funcs: tuple[str, ...] = ()) -> None:
        for node in stmts:
            if isinstance(node, ast.Import):
                self.record_import(node)
            elif isinstance(node, ast.ImportFrom):
                self.record_import_from(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join([*classes, *funcs, node.name])
                self.info.functions[qual] = FunctionInfo(
                    self.info.name, qual, node.lineno)
                if classes:
                    self.info.classes.setdefault(
                        ".".join(classes), []).append(node.name)
                self.scan(node.body, classes, (*funcs, node.name))
            elif isinstance(node, ast.ClassDef):
                self.info.classes.setdefault(
                    ".".join([*classes, *funcs, node.name]), [])
                self.scan(node.body, (*classes, node.name), funcs)
            else:  # fields in _fields order, as NodeVisitor walks them
                for name in node._fields:
                    if name in _STATEMENT_LISTS:
                        self.scan(getattr(node, name), classes, funcs)


# Calls that create a fresh numpy Generator.  ``repro.common.rng`` is the
# sanctioned factory pair; direct numpy construction is recognised too so
# a module bypassing the helpers is still caught.
RNG_FACTORIES = frozenset({
    "repro.common.rng.make_rng",
    "repro.common.rng.split_rng",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
})


@dataclass
class CallGraph:
    """The whole-program model: modules, functions, and resolved edges."""

    package: str
    root: Path
    modules: Mapping[str, ModuleInfo]
    functions: Mapping[str, FunctionInfo] = field(default_factory=dict)
    # function name -> list of (callee function name, lineno)
    edges: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    call_sites_total: int = 0
    call_sites_resolved: int = 0

    # -- imports / slicing ---------------------------------------------------

    def _ancestors(self, module: str) -> list[str]:
        parts = module.split(".")
        return [".".join(parts[:i]) for i in range(1, len(parts))]

    def module_slice(self, entry_module: str) -> set[str]:
        """Transitive import closure of ``entry_module``, ancestors included.

        Every module in the returned set can execute when the entry module
        is imported and run; every module outside it provably cannot
        (barring the dynamic-import escapes recorded on the modules
        themselves — check :meth:`slice_holes`).
        """
        if entry_module not in self.modules:
            raise KeyError(entry_module)
        seen: set[str] = set()
        frontier = [entry_module]
        while frontier:
            module = frontier.pop()
            if module in seen or module not in self.modules:
                continue
            seen.add(module)
            for ancestor in self._ancestors(module):
                if ancestor in self.modules and ancestor not in seen:
                    frontier.append(ancestor)
            for target in self.modules[module].imports:
                if target not in seen:
                    frontier.append(target)
        return seen

    def slice_holes(self, slice_modules: set[str]) -> list[tuple[str, int, str]]:
        """Static-analysis escapes inside a slice: ``(module, line, what)``
        for every dynamic-import site and unresolved intra-package import.
        A non-empty result means the slice cannot be trusted as a bound."""
        holes: list[tuple[str, int, str]] = []
        for name in sorted(slice_modules):
            info = self.modules.get(name)
            if info is None:
                continue
            for lineno, what in info.dynamic_sites:
                holes.append((name, lineno, f"dynamic import via {what}"))
            for lineno, target in info.unresolved_imports:
                holes.append((name, lineno, f"unresolved import of {target}"))
        return holes

    @property
    def import_resolution(self) -> float:
        total = sum(m.import_names_total for m in self.modules.values())
        resolved = sum(m.import_names_resolved for m in self.modules.values())
        return resolved / total if total else 1.0

    @property
    def call_resolution(self) -> float:
        if not self.call_sites_total:
            return 1.0
        return self.call_sites_resolved / self.call_sites_total

    # -- call-graph reachability ---------------------------------------------

    def function_for(self, name: str) -> FunctionInfo | None:
        """Look up ``module.qualname``; a class name maps to __init__."""
        if name in self.functions:
            return self.functions[name]
        init = self.functions.get(f"{name}.__init__")
        return init

    def reachable(self, entries: list[str]) -> dict[str, tuple[str, int] | None]:
        """BFS over call edges: reachable function -> (caller, lineno).

        Entry points map to ``None``.  Unknown entries are ignored (the
        caller reports them).
        """
        parents: dict[str, tuple[str, int] | None] = {}
        frontier: list[str] = []
        for entry in entries:
            fn = self.function_for(entry)
            if fn is not None and fn.name not in parents:
                parents[fn.name] = None
                frontier.append(fn.name)
        while frontier:
            current = frontier.pop(0)
            for callee, lineno in self.edges.get(current, ()):
                if callee not in parents:
                    parents[callee] = (current, lineno)
                    frontier.append(callee)
        return parents

    def witness(self, parents: dict[str, tuple[str, int] | None],
                target: str) -> tuple[str, ...]:
        """The call chain from an entry point to ``target``, one human-
        readable step per hop, oldest first — the deps analogue of the
        protocol checker's counterexample traces."""
        if target not in parents:
            return ()
        chain: list[str] = []
        current: str | None = target
        while current is not None:
            parent = parents[current]
            fn = self.functions.get(current)
            where = ""
            if fn is not None:
                rel = self.modules[fn.module].path
                try:
                    rel = rel.relative_to(self.root)
                except ValueError:
                    pass
                where = f" ({rel}:{fn.lineno})"
            if parent is None:
                chain.append(f"{current}{where} [entry point]")
                current = None
            else:
                caller, lineno = parent
                chain.append(f"{current}{where} called from "
                             f"{caller}:{lineno}")
                current = caller
        return tuple(reversed(chain))


def canonicalize(graph: CallGraph, target: str) -> str:
    """Follow package-``__init__`` re-export chains to the defining module.

    ``repro.runner.run_tasks`` resolves through ``runner/__init__.py``'s
    ``from repro.runner.core import run_tasks`` to
    ``repro.runner.core.run_tasks``.  Bounded, so a re-export cycle
    cannot hang the analysis.
    """
    for _ in range(8):
        if target in graph.functions:
            return target
        # Longest known-module prefix, then one attribute step through
        # that module's re-export table.
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in graph.modules:
                attr = parts[cut]
                forwarded = graph.modules[prefix].reexports.get(attr)
                if forwarded is not None and forwarded != target:
                    rest = parts[cut + 1:]
                    target = ".".join([forwarded, *rest])
                    break
                return target
        else:
            return target
    return target


def _resolve_calls(graph: CallGraph) -> None:
    """Second pass: bind every call site to a known function if possible."""
    for module in graph.modules.values():
        for fn in module.functions.values():
            graph.functions[fn.name] = fn
    for module in graph.modules.values():
        for fn in module.functions.values():
            edges = graph.edges.setdefault(fn.name, [])
            for site in fn.calls:
                graph.call_sites_total += 1
                target = _resolve_one_call(graph, module, fn, site)
                if target is not None:
                    graph.call_sites_resolved += 1
                    resolved_fn = graph.function_for(canonicalize(graph, target))
                    if resolved_fn is not None:
                        edges.append((resolved_fn.name, site.lineno))


def _resolve_one_call(graph: CallGraph, module: ModuleInfo,
                      fn: FunctionInfo, site: CallSite) -> str | None:
    """The canonical target of one call site, or None if unresolvable."""
    import builtins

    head, _, rest = site.raw.partition(".")
    # self.method() inside a class body -> the sibling method.
    if head == "self":
        if rest and "." not in rest and "." in fn.qualname:
            owner = fn.qualname.rsplit(".", 1)[0]
            candidate = f"{module.name}.{owner}.{rest}"
            if candidate in graph.functions:
                return candidate
        return None
    if site.resolved is not None:
        return site.resolved
    # A plain name: a sibling definition in this module wins over builtins.
    if not rest:
        if head in module.functions or head in module.classes:
            return f"{module.name}.{head}"
        if head in fn.locals or head in fn.params:
            return None  # a local callable: dynamic dispatch
        if hasattr(builtins, head):
            return f"builtins.{head}"
        return None
    # A dotted call on a local/parameter receiver is dynamic dispatch.
    return None


# Every dynamic-import site _ModuleVisitor records resolves to one of
# these names, so its source text (identifiers NFKC-normalised, as the
# parser does) must contain one of them, or the package itself must be
# named importlib, for `from . import import_module` to resolve there.
_DYNAMIC_WORDS = ("importlib", "__import__")


def _parse_file(path: Path) -> tuple[str, ast.Module]:
    """``path``'s source text and syntax tree."""
    text = path.read_text()
    return text, ast.parse(text, filename=str(path))


def _read_module(name: str, path: Path, package: str,
                 known: dict[str, Path], *, full: bool) -> ModuleInfo:
    """One module's facts: the full visitor's when ``full`` or when the
    module may import dynamically, else the statement scan's.  A file
    that fails to parse becomes a module with a dynamic-site hole (so
    slices through it degrade)."""
    info = ModuleInfo(name=name, path=path)
    try:
        text, tree = _parse_file(path)
    except (OSError, UnicodeDecodeError, SyntaxError) as exc:
        info.dynamic_sites.append((getattr(exc, "lineno", 0) or 0,
                                   f"unparseable module: {exc}"))
        info.functions[MODULE_BODY] = FunctionInfo(name, MODULE_BODY, 1)
        return info
    if not full:
        if not text.isascii():
            text = unicodedata.normalize("NFKC", text)
        full = package in _DYNAMIC_WORDS or any(
            word in text for word in _DYNAMIC_WORDS)
    if full:
        visitor = _ModuleVisitor(info, package, known)
        visitor.visit(tree)
        table = visitor.table
    else:
        info.functions[MODULE_BODY] = FunctionInfo(name, MODULE_BODY, 1)
        scan = _StatementScan(info, package, known)
        scan.scan(tree.body)
        table = scan.table
    info.reexports = {**table.modules, **table.members}
    return info


def build_callgraph(root: Path | None = None,
                    package: str | None = None) -> CallGraph:
    """Parse every module under ``root`` and build the whole-program graph.

    ``root`` defaults to the installed ``repro`` package directory;
    ``package`` defaults to the directory name.  Files that fail to parse
    are recorded as modules with a dynamic-site hole (so slices through
    them degrade) rather than aborting the build.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).parent
    root = root.resolve()
    package = package or root.name
    known = _discover_modules(root, package)
    graph = CallGraph(package=package, root=root, modules={
        name: _read_module(name, path, package, known, full=True)
        for name, path in known.items()
    })
    _resolve_calls(graph)
    return graph


class _ScannedModules(Mapping):
    """Module name -> :class:`ModuleInfo` over every module under a
    root, each read by the statement scan on its first lookup."""

    def __init__(self, known: dict[str, Path], package: str) -> None:
        self.known = known
        self.package = package
        self.read: dict[str, ModuleInfo] = {}

    def __getitem__(self, name: str) -> ModuleInfo:
        info = self.read.get(name)
        if info is None:
            info = self.read[name] = _read_module(
                name, self.known[name], self.package, self.known, full=False)
        return info

    def __iter__(self) -> Iterator[str]:
        return iter(self.known)

    def __len__(self) -> int:
        return len(self.known)


class _ScannedFunctions(Mapping):
    """``module.qualname`` -> :class:`FunctionInfo` over
    :class:`_ScannedModules`.  A lookup reads every module whose name is
    the key or a dotted prefix of it and, like :func:`_resolve_calls`,
    lets the last of them in discovery order win a shared name."""

    def __init__(self, modules: _ScannedModules) -> None:
        self.modules = modules
        self.order = {name: i for i, name in enumerate(modules.known)}

    def __getitem__(self, name: str) -> FunctionInfo:
        parts = name.split(".")
        owners = [".".join(parts[:cut]) for cut in range(1, len(parts) + 1)]
        found = None
        for module in sorted((m for m in owners if m in self.order),
                             key=self.order.__getitem__):
            qualname = name[len(module) + 1:] or MODULE_BODY
            found = self.modules[module].functions.get(qualname, found)
        if found is None:
            raise KeyError(name)
        return found

    def __iter__(self) -> Iterator[str]:
        return iter({fn.name: None for info in self.modules.values()
                     for fn in info.functions.values()})

    def __len__(self) -> int:
        return sum(1 for _ in self)


def import_graph(root: Path, package: str) -> CallGraph:
    """The import graph of ``root``, read lazily for slicing.

    Modules are parsed on first lookup, so a :meth:`CallGraph.module_slice`
    parses only the entry's import closure (plus the modules
    :func:`canonicalize` passes through).  Each module is walked
    statement by statement — imports anywhere, defs, classes and
    re-exports, so :func:`canonicalize`, :meth:`CallGraph.function_for`,
    :meth:`CallGraph.module_slice` and :meth:`CallGraph.slice_holes`
    answer exactly as on :func:`build_callgraph`'s graph — and only a
    module whose text may import dynamically gets the full expression
    walk.  There are no call edges.  Lookups fill the graph in place,
    so concurrent users must serialise access.
    """
    modules = _ScannedModules(_discover_modules(root, package), package)
    return CallGraph(package=package, root=root, modules=modules,
                     functions=_ScannedFunctions(modules))
