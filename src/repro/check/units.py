"""``units`` pass: static units-and-dimensions flow analysis.

The other four passes cannot see the bug class this one exists for: a
silently mixed ns/cycles or bytes/lines value corrupts every downstream
figure while the protocol still model-checks, the nets stay structurally
sound, every module lints clean and the dependency graph is spotless.
The repo encodes dimensions by naming convention
(:func:`repro.check.dimensions.suffix_dim`) plus an explicit annotation
registry (:data:`repro.check.dimensions.ANNOTATIONS` and inline
``# repro: unit(<token>)`` comments); this pass propagates those seeds
through the code and reports where they collide:

- **intraprocedural dataflow** — one forward pass per function over an
  abstract environment mapping names to dims, with the arithmetic rules
  of :mod:`repro.check.dimensions` (``+``/``-``/``%``/comparisons
  require matching units; ``time x freq`` of matching scale is a cycle
  count; ``fraction`` is transparent; powers of ten erase dims);
- **interprocedural propagation** — function return dims are inferred
  bottom-up over the existing call graph
  (:mod:`repro.check.callgraph`), then every call site checks its
  arguments against the callee's declared parameter dims (including
  dataclass constructor fields) and picks up the callee's return dim;
- **call-chain witnesses** — errors inside functions reachable from a
  registered entry point (experiment registry + sweep point, the same
  roots as the ``deps`` pass) carry the path from the entry point, the
  same counterexample discipline as the protocol model checker.

| rule | severity | rejects |
|---|---|---|
| ``unit-mix`` | error | ``+``/``-``/``%`` over different units (``bytes - lines``), or a mismatched-scale ``time * freq`` product (``latency_ns * clock_hz``) |
| ``unit-compare`` | error | ordering/equality between different units (``size_bytes < num_lines``) |
| ``unit-arg`` | error | an argument whose dim conflicts with the parameter's declared dim (``us`` into a ``*_ns`` parameter) |
| ``unit-return`` | error | a return value whose dim conflicts with the function's declared return dim |
| ``unit-assign`` | error | binding a value to a name whose suffix/annotation declares a different dim |
| ``unit-conversion`` | error | any of the above where the mismatch is seconds-family vs cycles — the fix is ``cycles_for_time``/``time_for_cycles``, not a rename |
| ``unit-unknown-return`` | warning | a public time/cycles/freq-suffixed function whose return dim the analysis cannot infer (an unknown-dimension escape at an API boundary) |
| ``unit-annotation`` | warning | a registry entry or inline ``unit(...)`` comment that names an unknown token or a name the tree no longer has |

Suppressions share the established ``# repro: allow(<rule>)`` namespace
(on the reported line); unit-rule suppressions that suppress nothing are
reported as ``unused-suppression`` by this pass, through the same
:func:`repro.check.report.suppression_findings` the lints use.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.callgraph import (
    CallGraph,
    ModuleInfo,
    _dotted,
    canonicalize,
)
from repro.check.dimensions import (
    ANNOTATIONS,
    Dim,
    UNITS,
    combine,
    divide,
    is_conversion_pair,
    is_pow10,
    multiply,
    suffix_dim,
    unit_comments,
)
from repro.check.report import (
    Finding,
    PassResult,
    suppression_findings,
    suppressions,
)

UNITS_RULES: tuple[str, ...] = (
    "unit-mix",
    "unit-compare",
    "unit-arg",
    "unit-return",
    "unit-assign",
    "unit-conversion",
    "unit-unknown-return",
    "unit-annotation",
)

#: Builtins the dataflow sees through: they return (one of) their
#: arguments unchanged in dimension.
_TRANSPARENT_ONE = frozenset({"abs", "round", "int", "float"})
_TRANSPARENT_JOIN = frozenset({"min", "max"})


@dataclass
class _Sig:
    """Declared unit facts about one function (or method)."""

    name: str  # module.qualname, matching CallGraph keys
    lineno: int
    positional: list[tuple[str, Dim | None]] = field(default_factory=list)
    by_name: dict[str, Dim | None] = field(default_factory=dict)
    declared_return: Dim | None = None
    return_explicit: bool = False  # registry/inline (trusted) vs suffix
    has_self: bool = False
    node: ast.FunctionDef | ast.AsyncFunctionDef | None = None
    module: str = ""


class _ModuleUnits:
    """Parsed per-module facts: AST, unit comments, suppressions."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self.source = ""
        self.tree: ast.Module | None = None
        try:
            self.source = info.path.read_text()
            self.tree = ast.parse(self.source, filename=str(info.path))
        except (OSError, UnicodeDecodeError, SyntaxError):
            self.tree = None  # callgraph already records the hole
        self.unit_lines = unit_comments(self.source) if self.source else {}
        self.allowed = suppressions(self.source)

    def resolve(self, dotted: str) -> str | None:
        """Canonical dotted target of a name read in this module."""
        head, _, rest = dotted.partition(".")
        info = self.info
        if head in info.reexports:
            base = info.reexports[head]
        elif head in info.assigns or head in info.functions \
                or head in info.classes:
            base = f"{info.name}.{head}"
        else:
            return None
        return f"{base}.{rest}" if rest else base


class _UnitsAnalysis:
    """The whole-tree pass: collect signatures, infer, then report."""

    def __init__(self, graph: CallGraph, entry_points: dict[str, str],
                 annotations: dict[str, str]) -> None:
        self.graph = graph
        self.annotations = annotations
        self.result = PassResult("units")
        self.modules: dict[str, _ModuleUnits] = {
            name: _ModuleUnits(info) for name, info in graph.modules.items()
        }
        self.fn_sigs: dict[str, _Sig] = {}
        self.class_fields: dict[str, list[tuple[str, Dim | None]]] = {}
        self.attr_dims: dict[str, Dim | None] = {}
        self.inferred: dict[str, Dim | None] = {}
        self.seeded = 0
        self.explicit = 0
        # Witness plumbing (same discipline as the deps pass).
        entries = []
        for target in sorted(entry_points.values()):
            fn = graph.function_for(canonicalize(graph, target))
            if fn is not None:
                entries.append(fn.name)
        self.entry_count = len(entries)
        self.parents = graph.reachable(entries)

    # -- annotation / suppression plumbing ---------------------------------

    def _annotation_dim(self, key: str) -> Dim | None:
        token = self.annotations.get(key)
        return UNITS.get(token) if token else None

    def _location(self, module: _ModuleUnits, lineno: int) -> str:
        path = module.info.path
        try:
            path = path.relative_to(self.graph.root.parent)
        except ValueError:
            pass
        return f"{path}:{lineno}"

    def _line_dim(self, module: _ModuleUnits, lineno: int) -> Dim | None:
        """A valid inline ``# repro: unit(...)`` declaration on a line."""
        token = module.unit_lines.get(lineno)
        return UNITS.get(token) if token else None

    def _witness(self, fn_name: str, leaf: str) -> tuple[str, ...]:
        chain = self.graph.witness(self.parents, fn_name)
        return (*chain, leaf) if chain else ()

    # -- signature collection ----------------------------------------------

    def collect_signatures(self) -> None:
        for module in self.modules.values():
            if module.tree is None:
                continue
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._collect_function(module, stmt, qual=stmt.name)
                elif isinstance(stmt, ast.ClassDef):
                    self._collect_class(module, stmt)
        # Attribute dims: explicitly declared fields, conflicts dropped,
        # so `lat.local_memory` resolves anywhere once MPLatencies
        # declares it.  Suffix-conforming names need no entry (the
        # suffix applies at every use site already).
        drop = {name for name, dim in self.attr_dims.items() if dim is None}
        for name in drop:
            del self.attr_dims[name]

    def _collect_class(self, module: _ModuleUnits, node: ast.ClassDef) -> None:
        key = f"{module.info.name}.{node.name}"
        fields: list[tuple[str, Dim | None]] = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                fname = stmt.target.id
                dim = (self._line_dim(module, stmt.lineno)
                       or self._annotation_dim(f"{key}.{fname}")
                       or suffix_dim(fname))
                if module.unit_lines.get(stmt.lineno) \
                        or self.annotations.get(f"{key}.{fname}"):
                    self.explicit += 1
                    prior = self.attr_dims.get(fname, dim)
                    self.attr_dims[fname] = dim if prior == dim else None
                if dim is not None:
                    self.seeded += 1
                fields.append((fname, dim))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(module, stmt,
                                       qual=f"{node.name}.{stmt.name}")
        self.class_fields[key] = fields

    def _collect_function(self, module: _ModuleUnits,
                          node: ast.FunctionDef | ast.AsyncFunctionDef,
                          qual: str) -> None:
        key = f"{module.info.name}.{qual}"
        sig = _Sig(name=key, lineno=node.lineno, node=node,
                   module=module.info.name)
        args = node.args
        ordered = [*args.posonlyargs, *args.args]
        sig.has_self = bool(ordered) and ordered[0].arg in ("self", "cls")
        for arg in [*ordered, *args.kwonlyargs,
                    *filter(None, (args.vararg, args.kwarg))]:
            dim = (self._line_dim(module, arg.lineno)
                   or self._annotation_dim(f"{key}.{arg.arg}")
                   or suffix_dim(arg.arg))
            if dim is not None:
                self.seeded += 1
            sig.by_name[arg.arg] = dim
        sig.positional = [(a.arg, sig.by_name[a.arg]) for a in ordered]
        explicit = (self._line_dim(module, node.lineno)
                    or self._annotation_dim(key))
        sig.declared_return = explicit or suffix_dim(node.name)
        sig.return_explicit = explicit is not None
        if explicit is not None:
            self.explicit += 1
            if "." in qual:
                # An explicitly-annotated method return also dims the
                # attribute name: a property read (`stats.miss_rate`)
                # has no call site for the signature to fire at.
                prior = self.attr_dims.get(node.name, explicit)
                self.attr_dims[node.name] = (explicit if prior == explicit
                                             else None)
        self.fn_sigs[key] = sig

    # -- annotation hygiene --------------------------------------------------

    def check_annotations(self) -> None:
        """unit-annotation: registry entries and inline comments that
        guard nothing (unknown token, or a name the tree lost)."""
        package_prefix = f"{self.graph.package}."
        for key, token in sorted(self.annotations.items()):
            if not key.startswith(package_prefix):
                continue
            if token not in UNITS:
                self._find("unit-annotation", "warning", key,
                           f"annotation registry maps {key} to unknown "
                           f"unit '{token}' (known: "
                           f"{', '.join(sorted(UNITS))})")
                continue
            module_name, _, attr = key.rpartition(".")
            known = (
                key in self.fn_sigs
                or key in self.class_fields
                or any(key == f"{cls}.{fname}"
                       for cls, fs in self.class_fields.items()
                       for fname, _ in fs)
                or any(sig.name == module_name and attr in sig.by_name
                       for sig in self.fn_sigs.values())
                or (module_name in self.modules
                    and attr in self.modules[module_name].info.assigns)
            )
            if not known:
                self._find("unit-annotation", "warning", key,
                           f"annotation registry entry {key} names no "
                           f"known function, field, parameter or module "
                           f"constant — remove or update it")
        for module in self.modules.values():
            for lineno, token in sorted(module.unit_lines.items()):
                if token not in UNITS:
                    self._find("unit-annotation", "warning",
                               self._location(module, lineno),
                               f"# repro: unit({token}) names no known "
                               f"unit token (known: "
                               f"{', '.join(sorted(UNITS))})")

    # -- findings ------------------------------------------------------------

    def _find(self, rule: str, severity: str, location: str, message: str,
              trace: tuple[str, ...] = ()) -> None:
        self.result.findings.append(
            Finding("units", rule, severity, location, message, trace))

    # -- driver --------------------------------------------------------------

    def run(self) -> PassResult:
        self.collect_signatures()
        # Two inference rounds propagate return dims through call
        # chains up to two hops deep before any finding is reported;
        # suffix- and annotation-declared returns anchor the fixpoint.
        for _ in range(2):
            for sig in self.fn_sigs.values():
                if sig.node is None:
                    continue
                fn = _FunctionFlow(self, self.modules[sig.module], sig,
                                   collect=False)
                self.inferred[sig.name] = sig.declared_return \
                    or fn.run_and_infer()
        flagged: dict[str, set[tuple[int, str]]] = {}
        for sig in self.fn_sigs.values():
            if sig.node is None:
                continue
            module = self.modules[sig.module]
            flow = _FunctionFlow(self, module, sig, collect=True)
            flow.run_and_infer()
            module_flagged = flagged.setdefault(sig.module, set())
            for lineno, rule, message in flow.findings:
                module_flagged.add((lineno, rule))
                if rule in module.allowed.get(lineno, ()):
                    continue
                severity = "warning" if rule in (
                    "unit-unknown-return", "unit-annotation") else "error"
                trace = ()
                if severity == "error" and sig.name in self.parents:
                    trace = self._witness(sig.name, message)
                self._find(rule, severity,
                           self._location(module, lineno), message, trace)
        self.check_annotations()
        for name, module in sorted(self.modules.items()):
            self.result.findings.extend(suppression_findings(
                "units", module.allowed, UNITS_RULES,
                flagged.get(name, set()),
                lambda lineno, module=module: self._location(module, lineno),
            ))
        self.result.findings.sort(key=lambda f: (f.rule, f.location))
        self.result.info.update({
            "modules": len(self.modules),
            "functions": len(self.fn_sigs),
            "seeded_names": self.seeded,
            "explicit_annotations": self.explicit,
            "entry_points": self.entry_count,
            "reachable_functions": len(self.parents),
        })
        return self.result


class _FunctionFlow:
    """Forward dataflow over one function body.

    The environment maps local names to dims; statements execute in
    source order (branch bodies sequentially — the abstraction is a
    may-analysis over names, not paths).  With ``collect`` the flow
    records findings; without, it only infers the return dim.
    """

    def __init__(self, owner: _UnitsAnalysis, module: _ModuleUnits,
                 sig: _Sig, collect: bool) -> None:
        self.owner = owner
        self.module = module
        self.sig = sig
        self.collect = collect
        self.env: dict[str, Dim | None] = dict(sig.by_name)
        self.findings: list[tuple[int, str, str]] = []
        self.return_dims: list[Dim | None] = []
        self.has_value_return = False

    # -- reporting -----------------------------------------------------------

    def _report(self, lineno: int, rule: str, message: str) -> None:
        if self.collect:
            self.findings.append((lineno, rule, message))

    def _mismatch(self, lineno: int, rule: str, a: Dim, b: Dim,
                  context: str) -> None:
        if is_conversion_pair(a, b):
            rule = "unit-conversion"
            context += (" — convert explicitly with cycles_for_time/"
                        "time_for_cycles (repro.common.units)")
        self._report(lineno, rule,
                     f"{self.sig.name}: {context} ({a} vs {b})")

    # -- driver --------------------------------------------------------------

    def run_and_infer(self) -> Dim | None:
        assert self.sig.node is not None
        self._exec_block(self.sig.node.body)
        if self.sig.declared_return is not None \
                and not self.sig.return_explicit \
                and self.has_value_return \
                and not any(d is not None for d in self.return_dims) \
                and self.sig.declared_return.quantity in (
                    "time", "cycles", "freq") \
                and self._is_public():
            self._report(
                self.sig.lineno, "unit-unknown-return",
                f"public API {self.sig.name}() declares "
                f"'{self.sig.declared_return}' by suffix but the analysis "
                f"cannot infer its return dimension; bless it with an "
                f"annotation registry entry or # repro: unit(...) so the "
                f"contract is explicit")
        known = {d for d in self.return_dims if d is not None}
        return known.pop() if len(known) == 1 else None

    def _is_public(self) -> bool:
        parts = [*self.sig.module.split("."), *self.sig.name.rsplit(
            ".", 1)[-1:]]
        return all(not part.startswith("_") for part in parts)

    # -- statements ----------------------------------------------------------

    def _exec_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            dim = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, dim, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            dim = self._eval(stmt.value) if stmt.value is not None else None
            self._bind(stmt.target, dim, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            right = self._eval(stmt.value)
            left = self._eval(stmt.target)
            dim = self._binop_dim(stmt.op, stmt.target, stmt.value,
                                  left, right, stmt.lineno)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = dim
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.has_value_return = True
                dim = self._eval(stmt.value)
                self.return_dims.append(dim)
                declared = self.sig.declared_return
                if declared is not None and dim is not None \
                        and dim != declared:
                    self._mismatch(
                        stmt.lineno, "unit-return", dim, declared,
                        f"returns '{dim}' where the function declares "
                        f"'{declared}'")
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_dim = self._eval(stmt.iter)
            self._bind(stmt.target, iter_dim, None, stmt.lineno,
                       check=False)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None, None,
                               stmt.lineno, check=False)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = None
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            self.env[stmt.name] = None  # nested scopes are not analyzed
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # pass/break/continue/global/nonlocal/import: nothing to flow.

    def _bind(self, target: ast.expr, dim: Dim | None,
              value: ast.AST | None, lineno: int, *,
              check: bool = True) -> None:
        if isinstance(target, ast.Name):
            # An inline unit(...) on the assignment is a reviewed *cast*
            # (trusted over inference, like a registry entry); only the
            # suffix convention is conflict-checked.
            cast = self.owner._line_dim(self.module, lineno)
            if cast is not None:
                self.env[target.id] = cast
                return
            declared = suffix_dim(target.id)
            if check and declared is not None and dim is not None \
                    and dim != declared:
                self._mismatch(
                    lineno, "unit-assign", dim, declared,
                    f"assigns a '{dim}' value to '{target.id}', which "
                    f"declares '{declared}'")
            self.env[target.id] = declared or dim
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            values = (value.elts if isinstance(value, (ast.Tuple, ast.List))
                      and len(value.elts) == len(elts) else None)
            for i, elt in enumerate(elts):
                elt_dim = self._eval(values[i]) if values else None
                self._bind(elt, elt_dim, values[i] if values else None,
                           lineno, check=check)
        elif isinstance(target, ast.Attribute):
            declared = (suffix_dim(target.attr)
                        or self.owner.attr_dims.get(target.attr))
            if check and declared is not None and dim is not None \
                    and dim != declared:
                self._mismatch(
                    lineno, "unit-assign", dim, declared,
                    f"assigns a '{dim}' value to attribute "
                    f"'{target.attr}', which declares '{declared}'")
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None, None, lineno, check=False)
        # Subscript targets: container element writes are untracked.

    # -- expressions ---------------------------------------------------------

    def _eval(self, node: ast.expr | None) -> Dim | None:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return self._name_dim(node.id)
        if isinstance(node, ast.Attribute):
            return self._attr_dim(node)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            return self._binop_dim(node.op, node.left, node.right,
                                   left, right, node.lineno)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            dims = [self._eval(o) for o in operands]
            for op, (a, av), (b, bv) in zip(
                    node.ops, zip(dims, operands), zip(dims[1:], operands[1:])):
                if isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn)):
                    continue
                if a is not None and b is not None and a != b:
                    self._mismatch(
                        node.lineno, "unit-compare", a, b,
                        f"compares '{a}' against '{b}' — the ordering is "
                        f"meaningless across units")
            return None
        if isinstance(node, ast.BoolOp):
            dims = {self._eval(v) for v in node.values}
            dims.discard(None)
            return dims.pop() if len(dims) == 1 else None
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            a = self._eval(node.body)
            b = self._eval(node.orelse)
            return a if a == b else (a if b is None else
                                     (b if a is None else None))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            self._eval(node.slice)
            return self._eval(node.value)  # container-of-X yields X
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict,
                             ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp, ast.JoinedStr, ast.Lambda,
                             ast.Await, ast.Yield, ast.YieldFrom)):
            return None
        return None

    def _name_dim(self, name: str) -> Dim | None:
        by_suffix = suffix_dim(name)
        if by_suffix is not None:
            return by_suffix
        canonical = self.module.resolve(name)
        if canonical is not None:
            return self.owner._annotation_dim(canonical)
        return None

    def _attr_dim(self, node: ast.Attribute) -> Dim | None:
        dotted = _dotted(node)
        if dotted is not None:
            canonical = self.module.resolve(dotted)
            if canonical is not None:
                annotated = self.owner._annotation_dim(canonical)
                if annotated is not None:
                    return annotated
        self._eval(node.value)
        return suffix_dim(node.attr) or self.owner.attr_dims.get(node.attr)

    def _binop_dim(self, op: ast.operator, left_node: ast.expr,
                   right_node: ast.expr, left: Dim | None,
                   right: Dim | None, lineno: int) -> Dim | None:
        # A power-of-ten literal is a hand-written scale conversion the
        # lattice cannot follow; the result leaves the analysis.
        for a_node, a_dim, b_dim in ((left_node, left, right),
                                     (right_node, right, left)):
            if isinstance(a_node, ast.Constant) and is_pow10(a_node.value) \
                    and isinstance(op, (ast.Mult, ast.Div)) \
                    and b_dim is not None:
                return None
        if isinstance(op, (ast.Add, ast.Sub, ast.Mod)):
            result, conflict = combine(left, right)
            if conflict:
                assert left is not None and right is not None
                token = {ast.Add: "+", ast.Sub: "-", ast.Mod: "%"}[type(op)]
                self._mismatch(
                    lineno, "unit-mix", left, right,
                    f"applies '{token}' across units")
                return None
            return result
        if isinstance(op, ast.Mult):
            result, conflict = multiply(left, right)
            if conflict:
                assert left is not None and right is not None
                self._mismatch(
                    lineno, "unit-mix", left, right,
                    f"multiplies '{left}' by '{right}' at mismatched "
                    f"scales — the product is neither cycles nor any "
                    f"unit in the lattice")
                return None
            return result
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            return divide(left, right)
        return None

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> Dim | None:
        arg_dims = [self._eval(arg) for arg in node.args]
        kw_dims = {kw.arg: self._eval(kw.value)
                   for kw in node.keywords if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _TRANSPARENT_ONE and arg_dims:
                return arg_dims[0]
            if func.id in _TRANSPARENT_JOIN:
                known = [d for d in arg_dims if d is not None]
                for a, b in zip(known, known[1:]):
                    if a != b:
                        self._mismatch(
                            node.lineno, "unit-compare", a, b,
                            f"passes mixed units to {func.id}() — the "
                            f"selection compares them")
                return known[0] if known else None
        sig, skip_self = self._resolve_callee(func)
        if sig is not None:
            self._check_args(node, sig, skip_self, arg_dims, kw_dims)
            return (sig.declared_return
                    or self.owner.inferred.get(sig.name))
        fields = self._resolve_constructor(func)
        if fields is not None:
            self._check_fields(node, fields, arg_dims, kw_dims)
            return None
        # Unresolvable receiver: the method *name* may still carry the
        # convention (machine.access_time_ns(...) is ns).
        if isinstance(func, ast.Attribute):
            return suffix_dim(func.attr)
        return None

    def _resolve_callee(self, func: ast.expr) -> tuple[_Sig | None, bool]:
        dotted = _dotted(func)
        if dotted is None:
            return None, False
        head, _, rest = dotted.partition(".")
        if head == "self" and rest and "." not in rest:
            owner = self.sig.name.rsplit(".", 1)[0]  # module.Class
            sig = self.owner.fn_sigs.get(f"{owner}.{rest}")
            if sig is not None:
                return sig, True
            return None, False
        canonical = self.module.resolve(dotted)
        if canonical is None:
            return None, False
        canonical = canonicalize(self.owner.graph, canonical)
        sig = self.owner.fn_sigs.get(canonical)
        if sig is not None:
            return sig, False
        init = self.owner.fn_sigs.get(f"{canonical}.__init__")
        if init is not None and canonical in self.owner.class_fields \
                and not self.owner.class_fields[canonical]:
            return init, True
        return None, False

    def _resolve_constructor(
            self, func: ast.expr) -> list[tuple[str, Dim | None]] | None:
        dotted = _dotted(func)
        if dotted is None:
            return None
        canonical = self.module.resolve(dotted)
        if canonical is None:
            return None
        canonical = canonicalize(self.owner.graph, canonical)
        fields = self.owner.class_fields.get(canonical)
        return fields if fields else None

    def _check_args(self, node: ast.Call, sig: _Sig, skip_self: bool,
                    arg_dims: list[Dim | None],
                    kw_dims: dict[str, Dim | None]) -> None:
        positional = sig.positional[1:] if skip_self else sig.positional
        for (pname, pdim), dim, arg in zip(positional, arg_dims, node.args):
            if isinstance(arg, ast.Starred):
                break
            self._check_one_arg(node.lineno, sig, pname, pdim, dim)
        for kwname, dim in kw_dims.items():
            pdim = sig.by_name.get(kwname)
            self._check_one_arg(node.lineno, sig, kwname, pdim, dim)

    def _check_one_arg(self, lineno: int, sig: _Sig, pname: str,
                       pdim: Dim | None, dim: Dim | None) -> None:
        if pdim is None or dim is None or pdim == dim:
            return
        callee = sig.name.rsplit(".", 1)[-1]
        self._mismatch(
            lineno, "unit-arg", dim, pdim,
            f"passes a '{dim}' value to parameter '{pname}' of "
            f"{callee}(), which declares '{pdim}'")

    def _check_fields(self, node: ast.Call,
                      fields: list[tuple[str, Dim | None]],
                      arg_dims: list[Dim | None],
                      kw_dims: dict[str, Dim | None]) -> None:
        by_name = dict(fields)
        callee = _dotted(node.func) or "<constructor>"
        for (fname, fdim), dim, arg in zip(fields, arg_dims, node.args):
            if isinstance(arg, ast.Starred):
                break
            if fdim is not None and dim is not None and fdim != dim:
                self._mismatch(
                    node.lineno, "unit-arg", dim, fdim,
                    f"passes a '{dim}' value to field '{fname}' of "
                    f"{callee}(), which declares '{fdim}'")
        for kwname, dim in kw_dims.items():
            fdim = by_name.get(kwname)
            if fdim is not None and dim is not None and fdim != dim:
                self._mismatch(
                    node.lineno, "unit-arg", dim, fdim,
                    f"passes a '{dim}' value to field '{kwname}' of "
                    f"{callee}(), which declares '{fdim}'")


def default_entry_points() -> dict[str, str]:
    """The same roots as the ``deps`` pass: registered experiments plus
    the sweep point."""
    from repro.check.deps import registry_entry_points

    return registry_entry_points()


def check_units(root: Path | None = None,
                entry_points: dict[str, str] | None = None,
                annotations: dict[str, str] | None = None) -> PassResult:
    """Run the units-and-dimensions flow pass.

    ``root`` defaults to the installed ``repro`` package, whose call
    graph is memoized with the runner's fingerprints;
    ``entry_points`` defaults to the experiment registry plus the sweep
    bases (the witness roots); ``annotations`` defaults to the shipped
    registry (:data:`repro.check.dimensions.ANNOTATIONS`).
    """
    from repro.runner.fingerprint import shared_callgraph

    graph = shared_callgraph(root)
    if entry_points is None:
        entry_points = default_entry_points() if root is None else {}
    if annotations is None:
        annotations = ANNOTATIONS
    return _UnitsAnalysis(graph, entry_points, annotations).run()
