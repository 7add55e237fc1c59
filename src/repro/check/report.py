"""Finding/report types and the suppression comments shared by the
``repro.check`` passes.

A :class:`Finding` is one diagnostic: which pass produced it, the rule
it violates, where, and — for the protocol model checker — the
counterexample trace that reaches the bad state.  ``error`` findings
fail the build (non-zero exit); ``warning`` findings are reported but
do not.

A finding on a line containing ``# repro: allow(<rule>[, <rule>...])``
is suppressed by the ``lints``, ``deps`` and ``units`` passes alike.
:func:`suppressions` parses those comments and
:func:`suppression_findings` polices them: a rule no pass defines is an
``unknown-suppression`` warning, and a pass's own rule on a line where
that pass finds nothing is an ``unused-suppression`` warning.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Collection
from dataclasses import dataclass, field

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")
_RULE_TOKEN_RE = re.compile(r"[a-z][a-z0-9-]*\Z")

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


def suppressions(source: str) -> dict[int, set[str]]:
    """line number -> rules allowed on that line.

    Only well-formed rule tokens (kebab-case identifiers) register, so
    prose *about* the syntax — ``allow(<rule>)`` in a docstring — is
    neither a suppression nor an unknown-suppression warning.
    """
    allowed: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            rules = {rule for rule in rules if _RULE_TOKEN_RE.match(rule)}
            if rules:
                allowed[lineno] = rules
    return allowed


def known_rules() -> frozenset[str]:
    """Every rule an allow-comment may legitimately name."""
    # The passes import this module; keep their imports lazy.
    from repro.check.deps import DEPS_RULES
    from repro.check.lints import LINT_RULES
    from repro.check.units import UNITS_RULES

    return (frozenset(LINT_RULES) | frozenset(DEPS_RULES)
            | frozenset(UNITS_RULES) | frozenset(META_RULES))


def suppression_findings(
    pass_name: str,
    allowed: dict[int, set[str]],
    own_rules: Collection[str],
    flagged: Collection[tuple[int, str]],
    location: Callable[[int], str],
    *,
    report_unknown: bool = False,
) -> list[Finding]:
    """Warnings about one module's allow-comments, in line then rule order.

    ``allowed`` is the module's :func:`suppressions`; ``flagged`` holds
    the ``(line, rule)`` pairs the pass found before suppression.  Only
    ``own_rules`` can be judged unused, because a pass cannot see the
    findings another pass's rules suppress.  ``report_unknown`` also
    flags rules outside :func:`known_rules` (the ``lints`` pass does
    this once for every module).
    """
    known = known_rules() if report_unknown else frozenset()
    findings: list[Finding] = []
    for lineno in sorted(allowed):
        for rule in sorted(allowed[lineno]):
            if report_unknown and rule not in known:
                findings.append(Finding(
                    pass_name, "unknown-suppression", "warning",
                    location(lineno),
                    f"allow({rule}) names no known rule — it guards "
                    f"nothing (known rules: "
                    f"{', '.join(sorted(known - set(META_RULES)))})",
                ))
            elif rule in own_rules and (lineno, rule) not in flagged:
                findings.append(Finding(
                    pass_name, "unused-suppression", "warning",
                    location(lineno),
                    f"allow({rule}) suppresses nothing on this line; "
                    f"the code it excused is gone — remove the comment",
                ))
    return findings
