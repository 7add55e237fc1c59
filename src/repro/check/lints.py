"""Simulation-discipline lints: the determinism contract, enforced.

The result cache (PR 1) assumes an experiment's output is a pure
function of (code fingerprint, parameters, seed).  These AST lints
reject the ways that assumption quietly breaks:

- ``global-rng`` — any use of the stdlib ``random`` module or of
  ``numpy.random``'s module-level state (``np.random.seed``,
  ``np.random.rand`` ...).  Only explicit ``numpy.random.Generator``
  objects threaded through :mod:`repro.common.rng` are allowed
  (``default_rng``/``Generator``/``SeedSequence``/``BitGenerator``
  references are therefore exempt).
- ``wall-clock`` — reading real time (``time.time``,
  ``time.perf_counter``, ``datetime.now`` ...) inside simulator code.
  Simulated time must come from the event loop, never the host clock.
- ``float-eq`` — ``==``/``!=`` against a float literal; simulated
  quantities accumulate rounding, so exact comparison is a latent
  heisenbug.  Compare with tolerances or integers instead.
- ``mutable-default`` — a list/dict/set default argument is shared
  across calls and across experiments, leaking state between runs.
- ``broad-except`` — a bare ``except:`` or ``except Exception``/
  ``except BaseException`` handler that swallows the error (no
  ``raise``, no logging/reporting call).  Silently eating failures is
  how a failed task turns into a wrong number; the runner's
  intentionally-broad catch sites (the result cache and the fingerprint
  fallback) carry reviewed ``allow`` annotations.
- ``doc-coverage`` — a public module (no path component starting with
  ``_``) without a module docstring, or a registered entry point (every
  experiment of the registry, the checked-in sweeps' point function
  included) without a function docstring.  Entry points are the repo's
  public API surface — the registry, the docs generator and the CLI
  all advertise them — so they carry their contract in-source.  This rule only runs in the
  default whole-tree scan (``lint_paths()`` with no roots); explicit
  roots and :func:`lint_source` skip it unless asked, since fragments
  and fixtures legitimately lack docs.

The pass reads nothing itself: it lints the modules of the call graph
(:func:`repro.runner.fingerprint.shared_callgraph`), which reads, parses
and resolves names for the ``deps`` and ``units`` passes too.  Names
resolve through :meth:`repro.check.callgraph.ModuleInfo.resolve`, so a
relative import (``from .random import helper``) names the package's
own module, not the stdlib one.  A module the graph could not read or
parse is an ``io`` or ``syntax`` error.

A finding on a line containing ``# repro: allow(<rule>[, <rule>...])``
is suppressed — the suppression is part of the reviewed source, so every
exemption is deliberate and visible in diffs.  The suppressions are
themselves checked (:func:`repro.check.report.apply_suppressions`):
naming a rule no pass defines (``allow(wall-clok)`` guards nothing) is
an ``unknown-suppression`` warning, and a lint-rule suppression on a
line where that rule finds nothing is an ``unused-suppression`` warning,
so stale exemptions cannot linger after the code they excused is gone.
The rule namespace spans this pass, the ``deps`` pass
(:data:`repro.check.deps.DEPS_RULES`) and the ``units`` pass
(:data:`repro.check.units.UNITS_RULES`), whose findings go through the
same filter; each pass polices unused suppressions of its own rules.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.check.callgraph import ModuleInfo, _dotted, _model
from repro.check.report import (
    Finding,
    PassResult,
    RawFinding,
    apply_suppressions,
)

LINT_RULES: tuple[str, ...] = (
    "global-rng",
    "wall-clock",
    "float-eq",
    "mutable-default",
    "broad-except",
    "doc-coverage",
)

# numpy.random attributes that are *not* module-level state.
_NP_RANDOM_OK = {"Generator", "default_rng", "SeedSequence", "BitGenerator",
                 "PCG64", "RandomState"}  # RandomState as a *type* reference
_WALL_CLOCK_TIME = {"time", "time_ns", "monotonic", "monotonic_ns",
                    "perf_counter", "perf_counter_ns", "process_time",
                    "localtime", "gmtime"}
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}

# Broad exception names, and call names that count as "the handler
# reported the error" (so the catch is observable, not a silent eat).
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
_REPORTING_CALLS = {"log", "debug", "info", "warning", "warn", "error",
                    "exception", "critical", "print", "write",
                    "format_exc", "print_exc"}


class _Linter(ast.NodeVisitor):
    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self.findings: list[tuple[int, str, str]] = []  # (line, rule, msg)

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append((node.lineno, rule, message))

    # -- global-rng / wall-clock ------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = _dotted(node)
        resolved = self.info.resolve(dotted) if dotted else None
        if resolved:
            self._check_resolved(node, resolved)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        resolved = self.info.resolve(node.id)
        if resolved:
            self._check_resolved(node, resolved)

    def _check_resolved(self, node: ast.AST, resolved: str) -> None:
        parts = resolved.split(".")
        if parts[0] == "random" and len(parts) > 1:
            self._flag(node, "global-rng",
                       f"stdlib random ({resolved}) uses hidden global "
                       f"state; thread a repro.common.rng Generator "
                       f"instead")
        if parts[:2] == ["numpy", "random"] and len(parts) > 2 \
                and parts[2] not in _NP_RANDOM_OK:
            self._flag(node, "global-rng",
                       f"{resolved} mutates numpy's module-level RNG "
                       f"state; thread a repro.common.rng Generator "
                       f"instead")
        if parts[0] == "time" and len(parts) == 2 \
                and parts[1] in _WALL_CLOCK_TIME:
            self._flag(node, "wall-clock",
                       f"{resolved} reads the host clock; simulated time "
                       f"must come from the event loop")
        if parts[0] == "datetime" and parts[-1] in _WALL_CLOCK_DATETIME:
            self._flag(node, "wall-clock",
                       f"{resolved} reads the host clock; simulated time "
                       f"must come from the event loop")

    # -- float-eq ----------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if isinstance(side, ast.Constant) \
                        and isinstance(side.value, float):
                    self._flag(
                        node, "float-eq",
                        f"exact {'==' if isinstance(op, ast.Eq) else '!='} "
                        f"against float literal {side.value!r}; use a "
                        f"tolerance (math.isclose) or integers",
                    )
                    break
        self.generic_visit(node)

    # -- broad-except ------------------------------------------------------

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        """Bare ``except:``/``except Exception``/``except BaseException``
        (alone or inside a tuple of exception types)."""
        kind = handler.type
        if kind is None:
            return True
        types = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        return any(
            isinstance(t, ast.Name) and t.id in _BROAD_EXCEPTIONS
            for t in types
        )

    @staticmethod
    def _handler_reports(handler: ast.ExceptHandler) -> bool:
        """Does the handler body re-raise, or call something that makes
        the swallowed error observable (logging, printing, formatting
        the traceback)?"""
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                name = None
                if isinstance(func, ast.Attribute):
                    name = func.attr
                elif isinstance(func, ast.Name):
                    name = func.id
                if name in _REPORTING_CALLS:
                    return True
        return False

    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            if self._is_broad(handler) and not self._handler_reports(handler):
                caught = "bare except" if handler.type is None else \
                    f"except {ast.unparse(handler.type)}"
                # Flagged on the handler's own line so the allow-comment
                # sits next to the catch, not the try.
                self.findings.append((
                    handler.lineno, "broad-except",
                    f"{caught} swallows the error without re-raising or "
                    f"reporting it; narrow the exception, re-raise, or "
                    f"log what was caught",
                ))
        self.generic_visit(node)

    # -- mutable-default ---------------------------------------------------

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in {"list", "dict", "set", "bytearray"}
            )
            if mutable:
                self._flag(
                    default, "mutable-default",
                    f"mutable default argument in {node.name}() is shared "
                    f"across calls; default to None and construct inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def _doc_findings(
    tree: ast.Module,
    require_module_doc: bool,
    required_docs: frozenset[str],
) -> list[tuple[int, str, str]]:
    """doc-coverage findings for one parsed module."""
    findings: list[tuple[int, str, str]] = []
    if require_module_doc and ast.get_docstring(tree) is None:
        findings.append((
            1, "doc-coverage",
            "public module has no docstring; state what it models and "
            "which contract it keeps (or rename it _private)",
        ))
    if required_docs:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in required_docs \
                    and ast.get_docstring(node) is None:
                findings.append((
                    node.lineno, "doc-coverage",
                    f"registered entry point {node.name}() has no "
                    f"docstring; it is advertised by the registry and "
                    f"the CLI and must carry its contract in-source",
                ))
    return findings


def _lint_module(info: ModuleInfo, require_module_doc: bool,
                 required_docs: frozenset[str]) -> list[RawFinding]:
    """One parsed module's lint findings before suppression, in line
    order."""
    linter = _Linter(info)
    linter.visit(info.tree)
    linter.findings.extend(
        _doc_findings(info.tree, require_module_doc, required_docs))
    return [(info.name, lineno, rule, "error", message, ())
            for lineno, rule, message in sorted(linter.findings)]


def _rules_run(doc_coverage: bool) -> tuple[str, ...]:
    """The rules a scan runs.  A rule that did not run cannot have its
    suppressions judged unused."""
    return LINT_RULES if doc_coverage else tuple(
        rule for rule in LINT_RULES if rule != "doc-coverage")


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    require_module_doc: bool = False,
    required_docs: frozenset[str] = frozenset(),
) -> list[Finding]:
    """Lint one module's source text; suppressions already applied.

    ``doc-coverage`` is opt-in: ``require_module_doc`` demands a module
    docstring and ``required_docs`` names the entry-point functions that
    must carry one.  The default whole-tree scan turns both on for
    public modules; fragments and explicit roots stay exempt.
    """
    name = Path(path).stem
    info = _model(ModuleInfo(name=name, path=Path(path)),
                  ast.parse(source, filename=path), name, {}, full=True,
                  text=source)
    doc_coverage = require_module_doc or bool(required_docs)
    return apply_suppressions(
        "lints", _lint_module(info, require_module_doc, required_docs),
        {info.name: info}, _rules_run(doc_coverage),
        lambda _, lineno: f"{path}:{lineno}", report_unknown=True)


def _entry_point_docs() -> dict[str, frozenset[str]]:
    """Dotted module -> entry-point function names that must be documented.

    The same roots as the ``deps`` pass — the entry points of every
    registered experiment, the checked-in sweeps included — everything
    the registry advertises by dotted name.
    """
    from repro.check.deps import registry_entry_points

    required: dict[str, set[str]] = {}
    for dotted in registry_entry_points().values():
        module, _, fn = dotted.rpartition(".")
        required.setdefault(module, set()).add(fn)
    return {module: frozenset(names) for module, names in required.items()}


def lint_paths(roots: list[Path] | None = None) -> PassResult:
    """Lint every module of the packages at ``roots`` (default:
    ``repro``), as the shared call graph read them.

    The default whole-tree scan additionally enforces ``doc-coverage``:
    public modules need module docstrings and registered entry points
    need function docstrings.  Explicit roots skip that rule —
    fixtures and scratch files are not public API.
    """
    from repro.runner.fingerprint import shared_callgraph

    doc_coverage = roots is None
    entry_docs = _entry_point_docs() if doc_coverage else {}
    result = PassResult("lints")
    files = 0
    for root in [None] if roots is None else roots:
        graph = shared_callgraph(root)
        files += len(graph.modules)
        raw: list[RawFinding] = []
        for info in graph.modules.values():
            error = info.read_error
            if isinstance(error, SyntaxError):
                result.findings.append(Finding(
                    "lints", "syntax", "error",
                    graph.location(info.name, error.lineno),
                    f"could not parse: {error.msg}"))
            elif error is not None:
                result.findings.append(Finding(
                    "lints", "io", "error", graph.location(info.name),
                    f"could not read: {error}"))
            else:
                public = not any(part.startswith("_")
                                 for part in info.name.split("."))
                raw.extend(_lint_module(
                    info, doc_coverage and public,
                    entry_docs.get(info.name, frozenset())))
        result.findings.extend(apply_suppressions(
            "lints", raw, graph.modules, _rules_run(doc_coverage),
            graph.location, report_unknown=True))
    result.info = {"files": files, "rules": len(LINT_RULES)}
    return result
