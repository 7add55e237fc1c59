"""Finding/report types and the one suppression filter of the
``repro.check`` passes.

A :class:`Finding` is one diagnostic: which pass produced it, the rule
it violates, where, and — for the protocol model checker — the
counterexample trace that reaches the bad state.  ``error`` findings
fail the build (non-zero exit); ``warning`` findings are reported but
do not.

A finding on a line containing ``# repro: allow(<rule>[, <rule>...])``
is suppressed by the ``lints``, ``deps`` and ``units`` passes alike.
The comments are parsed once per module when
:func:`repro.check.callgraph.build_callgraph` reads it
(:attr:`~repro.check.callgraph.ModuleInfo.allowed`), and each pass hands
its raw findings to :func:`apply_suppressions`, which drops the
suppressed ones and polices the comments: a rule no pass defines is an
``unknown-suppression`` warning, and a pass's own rule on a line where
that pass finds nothing is an ``unused-suppression`` warning.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Collection, Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.check.callgraph import ModuleInfo

# Diagnostics about the suppression comments themselves.
META_RULES: tuple[str, ...] = ("unknown-suppression", "unused-suppression")


@dataclass(frozen=True)
class Finding:
    """One diagnostic from one pass."""

    pass_name: str  # "protocol" | "gspn" | "lints" | "deps" | "units"
    rule: str  # kebab-case rule id, e.g. "single-writer"
    severity: str  # "error" | "warning"
    location: str  # config, net name, or file:line
    message: str
    trace: tuple[str, ...] = ()  # counterexample steps, oldest first

    def to_dict(self) -> dict:
        payload = {
            "pass": self.pass_name,
            "rule": self.rule,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
        }
        if self.trace:
            payload["trace"] = list(self.trace)
        return payload

    def render(self) -> str:
        lines = [f"{self.severity}[{self.pass_name}/{self.rule}] "
                 f"{self.location}: {self.message}"]
        if self.trace:
            lines.append("  counterexample trace:")
            lines.extend(f"    {i + 1}. {step}"
                         for i, step in enumerate(self.trace))
        return "\n".join(lines)


@dataclass
class PassResult:
    """One pass's findings plus its coverage statistics."""

    name: str
    findings: list[Finding] = field(default_factory=list)
    info: dict[str, object] = field(default_factory=dict)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]


@dataclass
class CheckReport:
    """The whole run: every executed pass, in execution order."""

    passes: list[PassResult] = field(default_factory=list)

    @property
    def findings(self) -> list[Finding]:
        return [f for p in self.passes for f in p.findings]

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "passes": [
                    {
                        "name": p.name,
                        "info": p.info,
                        "findings": [f.to_dict() for f in p.findings],
                    }
                    for p in self.passes
                ],
                "summary": {
                    "errors": len(self.errors),
                    "warnings": sum(len(p.warnings) for p in self.passes),
                    "ok": not self.errors,
                },
            },
            indent=2,
            sort_keys=True,
        )

    def render_text(self) -> str:
        lines: list[str] = []
        for result in self.passes:
            stats = ", ".join(f"{k}={v}" for k, v in result.info.items())
            verdict = ("ok" if not result.errors
                       else f"{len(result.errors)} error(s)")
            suffix = f" ({stats})" if stats else ""
            lines.append(f"[{result.name}] {verdict}{suffix}")
            for finding in result.findings:
                lines.append(finding.render())
        total_err = len(self.errors)
        total_warn = sum(len(p.warnings) for p in self.passes)
        lines.append(
            f"check: {len(self.passes)} pass(es), "
            f"{total_err} error(s), {total_warn} warning(s)"
        )
        return "\n".join(lines)


def known_rules() -> frozenset[str]:
    """Every rule an allow-comment may legitimately name."""
    # The passes import this module; keep their imports lazy.
    from repro.check.deps import DEPS_RULES
    from repro.check.lints import LINT_RULES
    from repro.check.units import UNITS_RULES

    return (frozenset(LINT_RULES) | frozenset(DEPS_RULES)
            | frozenset(UNITS_RULES) | frozenset(META_RULES))


#: A finding before suppression: ``(module, line, rule, severity,
#: message, trace)``, the module by dotted name.
RawFinding = tuple[str, int, str, str, str, tuple[str, ...]]


def apply_suppressions(
    pass_name: str,
    raw: Iterable[RawFinding],
    modules: Mapping[str, ModuleInfo],
    own_rules: Collection[str],
    location: Callable[[str, int], str],
    *,
    report_unknown: bool = False,
) -> list[Finding]:
    """One pass's findings after its modules' allow-comments.

    Module by module, in ``modules`` order: the ``raw`` findings no
    comment on their line allows, in the order given, then the warnings
    about that module's comments in line then rule order.  Only
    ``own_rules`` can be judged unused, because a pass cannot see the
    findings another pass's rules suppress.  ``report_unknown`` also
    flags rules outside :func:`known_rules` (the ``lints`` pass does
    this once for every module).  ``location`` renders a module's line.
    """
    by_module: dict[str, list[RawFinding]] = {}
    for finding in raw:
        by_module.setdefault(finding[0], []).append(finding)
    known = known_rules() if report_unknown else frozenset()
    findings: list[Finding] = []
    for name, info in modules.items():
        flagged = set()
        for _, lineno, rule, severity, message, trace in by_module.get(
                name, ()):
            flagged.add((lineno, rule))
            if rule not in info.allowed.get(lineno, ()):
                findings.append(Finding(pass_name, rule, severity,
                                        location(name, lineno), message,
                                        trace))
        for lineno in sorted(info.allowed):
            for rule in sorted(info.allowed[lineno]):
                if report_unknown and rule not in known:
                    findings.append(Finding(
                        pass_name, "unknown-suppression", "warning",
                        location(name, lineno),
                        f"allow({rule}) names no known rule — it guards "
                        f"nothing (known rules: "
                        f"{', '.join(sorted(known - set(META_RULES)))})",
                    ))
                elif rule in own_rules and (lineno, rule) not in flagged:
                    findings.append(Finding(
                        pass_name, "unused-suppression", "warning",
                        location(name, lineno),
                        f"allow({rule}) suppresses nothing on this line; "
                        f"the code it excused is gone — remove the comment",
                    ))
    return findings
