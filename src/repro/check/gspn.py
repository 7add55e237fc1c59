"""Structural analysis of the paper's GSPNs (Figures 9-12, Section 5.6).

The Monte-Carlo evaluator (:mod:`repro.gspn.sim`) can only visit the
markings its random runs reach; this pass checks net *structure*, which
holds for every possible run:

- **incidence matrix** ``C[p][t] = O(p,t) - I(p,t)`` over all places and
  transitions;
- **P-invariants** (place semiflows): minimal nonnegative integer
  vectors ``y`` with ``y C = 0``, computed by the Farkas elimination
  algorithm in exact integer arithmetic.  Each semiflow certifies a
  conserved token sum ``y · M = y · M0``;
- **resource coverage**: every initially marked place (a pipeline slot,
  load/store unit, bank-ready token, L2 port ...) must lie in the
  support of some P-invariant — otherwise the "resource" can leak or
  duplicate, which invalidates the CPI readings taken from the net;
- **possibly-unbounded places** (warning): places covered by no
  P-invariant, e.g. the open request queues of the Figure 9 membank net;
- **structurally dead transitions**: transitions that can never fire in
  the token-flow over-approximation (a transitively unmarkable input
  place);
- **T-invariants** (transition semiflows, reported as coverage info):
  firing-count vectors that reproduce a marking — steady-state cycles;
- **immediate-conflict sanity**: every set of immediate transitions
  competing for one place at equal priority must carry finite, positive,
  non-NaN weights, or the simulator's weighted conflict resolution is
  undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from repro.check.report import Finding, PassResult
from repro.gspn.net import PetriNet, TransitionKind

# Abort Farkas elimination if the intermediate row set explodes; the
# shipped nets stay in the hundreds.
_MAX_ROWS = 20_000

# Enumerating minimal T-semiflows is exponential in the number of
# alternative routings (16 banks x 3 request kinds); above this many
# transitions only the invariant-space dimension is computed.
_MAX_T_ENUMERATION = 50


def incidence_matrix(net: PetriNet) -> tuple[list[str], list[str], list[list[int]]]:
    """``(places, transitions, C)`` with ``C[p][t] = outputs - inputs``."""
    places = list(net.initial_marking)
    index = {name: i for i, name in enumerate(places)}
    transitions = list(net.transitions)
    matrix = [[0] * len(transitions) for _ in places]
    for t, name in enumerate(transitions):
        transition = net.transitions[name]
        for place, mult in transition.inputs.items():
            matrix[index[place]][t] -= mult
        for place, mult in transition.outputs.items():
            matrix[index[place]][t] += mult
    return places, transitions, matrix


def semiflows(matrix: list[list[int]]) -> list[tuple[int, ...]]:
    """Minimal nonnegative integer solutions of ``y M = 0`` (Farkas).

    ``matrix`` has one row per dimension of ``y``; the result vectors are
    indexed the same way.  For P-semiflows pass the incidence matrix
    (rows = places); for T-semiflows pass its transpose.
    """
    if not matrix:
        return []
    columns = len(matrix[0])
    # Each working row is (remaining columns of y·M, the y vector itself).
    rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
        (tuple(matrix[i]),
         tuple(1 if j == i else 0 for j in range(len(matrix))))
        for i in range(len(matrix))
    ]
    for col in range(columns):
        positive = [r for r in rows if r[0][col] > 0]
        negative = [r for r in rows if r[0][col] < 0]
        combined = [r for r in rows if r[0][col] == 0]
        for coeffs_p, y_p in positive:
            for coeffs_n, y_n in negative:
                a = -coeffs_n[col]
                b = coeffs_p[col]
                coeffs = [a * x + b * z for x, z in zip(coeffs_p, coeffs_n)]
                y = [a * x + b * z for x, z in zip(y_p, y_n)]
                divisor = 0
                for value in coeffs + y:
                    divisor = gcd(divisor, value)
                if divisor > 1:
                    coeffs = [value // divisor for value in coeffs]
                    y = [value // divisor for value in y]
                combined.append((tuple(coeffs), tuple(y)))
        # Keep only minimal-support rows (Farkas minimality condition).
        supports = [frozenset(i for i, v in enumerate(y) if v)
                    for _, y in combined]
        keep: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        seen: set[tuple[int, ...]] = set()
        for i, row in enumerate(combined):
            if row[1] in seen:
                continue
            if any(supports[j] < supports[i] for j in range(len(combined))):
                continue
            seen.add(row[1])
            keep.append(row)
        rows = keep
        if len(rows) > _MAX_ROWS:
            raise OverflowError(
                f"semiflow computation exceeded {_MAX_ROWS} rows"
            )
    return [y for _, y in rows]


def null_space_dimension(matrix: list[list[int]]) -> int:
    """dim{x : M x = 0} by exact rational Gaussian elimination."""
    if not matrix:
        return 0
    rows = [[Fraction(v) for v in row] for row in matrix]
    columns = len(rows[0])
    rank = 0
    for col in range(columns):
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return columns - rank


def potentially_fireable(net: PetriNet) -> set[str]:
    """Transitions fireable in the token-flow over-approximation.

    Ignores multiplicities and inhibitor arcs, so anything *outside* the
    result is structurally dead — it can never fire in any run.
    """
    markable = {p for p, tokens in net.initial_marking.items() if tokens}
    fireable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, transition in net.transitions.items():
            if name in fireable:
                continue
            if set(transition.inputs) <= markable:
                fireable.add(name)
                new_places = set(transition.outputs) - markable
                if new_places:
                    markable |= new_places
                changed = True
    return fireable


@dataclass
class NetAnalysis:
    """Everything the structural pass derives from one net."""

    name: str
    places: list[str]
    transitions: list[str]
    p_semiflows: list[dict[str, int]] = field(default_factory=list)
    t_semiflows: list[dict[str, int]] = field(default_factory=list)
    t_invariant_dimension: int = 0
    conserved_sums: list[int] = field(default_factory=list)
    uncovered_places: list[str] = field(default_factory=list)
    dead_transitions: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)


def _conflict_findings(net: PetriNet, location: str) -> list[Finding]:
    """Weight sanity for immediate transitions competing for a place."""
    findings: list[Finding] = []
    by_place: dict[tuple[str, int], list[str]] = {}
    for name, transition in net.transitions.items():
        if transition.kind is not TransitionKind.IMMEDIATE:
            continue
        for place in transition.inputs:
            by_place.setdefault((place, transition.priority), []).append(name)
    flagged: set[str] = set()
    for (place, priority), names in sorted(by_place.items()):
        for name in names:
            weight = net.transitions[name].param
            if name in flagged:
                continue
            if math.isnan(weight) or math.isinf(weight) or weight <= 0:
                flagged.add(name)
                rivals = [n for n in names if n != name]
                findings.append(Finding(
                    "gspn", "conflict-weights", "error", location,
                    f"immediate transition {name} (input {place}, "
                    f"priority {priority}) has weight {weight!r}; "
                    f"weighted conflict resolution against "
                    f"{rivals or 'itself'} is undefined",
                ))
    return findings


def analyze_net(net: PetriNet, name: str | None = None) -> NetAnalysis:
    """Full structural analysis of one net."""
    label = name or net.name
    location = f"net {label}"
    places, transitions, matrix = incidence_matrix(net)
    analysis = NetAnalysis(label, places, transitions)

    try:
        p_flows = semiflows(matrix)
    except OverflowError as exc:
        analysis.findings.append(Finding(
            "gspn", "p-invariants", "warning", location,
            f"P-invariant computation aborted: {exc}",
        ))
        p_flows = []
    # T-invariants: the dimension of {x : C x = 0} is always computed
    # exactly; enumerating minimal T-semiflows is exponential in the
    # bank-routing alternatives, so it is gated on net size.
    analysis.t_invariant_dimension = null_space_dimension(matrix)
    t_flows: list[tuple[int, ...]] = []
    if len(transitions) <= _MAX_T_ENUMERATION:
        transpose = [[matrix[p][t] for p in range(len(places))]
                     for t in range(len(transitions))]
        try:
            t_flows = semiflows(transpose)
        except OverflowError as exc:
            analysis.findings.append(Finding(
                "gspn", "t-invariants", "warning", location,
                f"T-semiflow enumeration aborted: {exc}",
            ))

    analysis.p_semiflows = [
        {places[i]: v for i, v in enumerate(y) if v} for y in p_flows
    ]
    analysis.t_semiflows = [
        {transitions[i]: v for i, v in enumerate(x) if v} for x in t_flows
    ]
    analysis.conserved_sums = [
        sum(weight * net.initial_marking[place]
            for place, weight in flow.items())
        for flow in analysis.p_semiflows
    ]

    covered = {place for flow in analysis.p_semiflows for place in flow}
    analysis.uncovered_places = [p for p in places if p not in covered]
    for place in analysis.uncovered_places:
        if net.initial_marking[place] > 0:
            analysis.findings.append(Finding(
                "gspn", "p-invariant-coverage", "error", location,
                f"resource place {place} (initially "
                f"{net.initial_marking[place]} token(s)) is covered by no "
                f"P-invariant: its tokens can leak or duplicate",
            ))
    unbounded = [p for p in analysis.uncovered_places
                 if net.initial_marking[p] == 0]
    if unbounded:
        analysis.findings.append(Finding(
            "gspn", "possibly-unbounded", "warning", location,
            f"{len(unbounded)} place(s) covered by no P-invariant and "
            f"possibly unbounded: {', '.join(unbounded)}",
        ))

    fireable = potentially_fireable(net)
    analysis.dead_transitions = [t for t in transitions if t not in fireable]
    for transition in analysis.dead_transitions:
        analysis.findings.append(Finding(
            "gspn", "dead-transition", "error", location,
            f"transition {transition} is structurally dead: some input "
            f"place can never be marked",
        ))

    analysis.findings.extend(_conflict_findings(net, location))
    return analysis


def check_gspn_models(
    nets: dict[str, PetriNet] | None = None,
) -> PassResult:
    """Analyze every registered evaluation net; one PassResult."""
    if nets is None:
        from repro.gspn.models import registered_nets

        nets = registered_nets()
    result = PassResult("gspn")
    invariants = 0
    for name, net in nets.items():
        analysis = analyze_net(net, name)
        invariants += len(analysis.p_semiflows)
        result.findings.extend(analysis.findings)
    result.info = {"nets": len(nets), "p_invariants": invariants}
    return result
