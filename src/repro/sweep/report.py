"""Sweep reports: machine-readable artifacts and auto-generated SWEEPS.md.

The same artifact -> render -> drift-check pipeline as
:mod:`repro.analysis.docs` runs for EXPERIMENTS.md:

- ``python -m repro sweep run <spec>`` writes the deterministic
  per-sweep artifact ``artifacts/sweeps/<name>.json`` (schema below);
- ``python -m repro sweep report`` regenerates SWEEPS.md from every
  checked-in artifact;
- ``scripts/check_docs.py`` (and its tier-1 wrapper) regenerates
  SWEEPS.md into a buffer and fails on any diff, so the mechanical
  sweep docs can never drift silently.

Unlike ``artifacts/experiments.json``, sweep artifacts embed **no code
fingerprint**: with fixed seeds the metrics are a pure function of the
spec, so the artifact — and therefore SWEEPS.md — only changes when the
swept results actually change, not on every unrelated source edit.
What ties an artifact to its spec is ``spec_digest``, a content hash of
the validated spec, which the drift check uses to flag a report whose
spec was edited after the sweep ran.
"""

from __future__ import annotations

import difflib
import hashlib
import json
from pathlib import Path

from repro.sweep.engine import SweepOutcome
from repro.sweep.points import OBJECTIVES
from repro.sweep.spec import DEFAULT_SWEEPS_DIR, SweepSpec, load_spec

SWEEP_SCHEMA_VERSION = 1
DEFAULT_SWEEPS_DOC = Path("SWEEPS.md")

# Schema-1 fields that are the same for every sweep: the one pipeline,
# its grid expansion and its minimised objectives.  They stay in the
# digest payload and the artifact so both keep their checked-in bytes.
_BASE = "figure7"
_MODE = "grid"
_GOAL = "min"

PREAMBLE = """\
Design-space exploration reports over the paper's pipelines: each sweep
below is a checked-in TOML spec under `artifacts/sweeps/` expanded into
a configuration grid, fanned out through the supervised experiment
runner (every configuration cached under its entry point's dependency
slice fingerprint), and reduced to a Pareto frontier over the sweep's
objectives.  `frontier` marks configurations no other point beats on
every objective at once; `dominated by <label>` names the first
configuration that is at least as good everywhere and strictly better
somewhere.

Regenerate with `python -m repro sweep run <name>` (recompute or serve
from cache) followed by `python -m repro sweep report`;
`scripts/check_docs.py` fails CI when this document drifts from the
checked-in sweep artifacts.\
"""


def spec_digest(spec: SweepSpec) -> str:
    """Content hash of a validated spec (axes, fixed knobs)."""
    payload = json.dumps(
        {
            "name": spec.name,
            "base": _BASE,
            "mode": _MODE,
            "axes": [[name, list(values)] for name, values in spec.axes],
            "fixed": spec.fixed,
            "objectives": [[metric, _GOAL] for metric in OBJECTIVES],
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def build_sweep_artifact(outcome: SweepOutcome) -> dict:
    """The deterministic JSON payload for one sweep run.

    Wall times, cache statuses and worker pids are deliberately absent —
    they live in ``--metrics-out`` — so reruns are byte-stable.
    """
    spec = outcome.spec
    return {
        "schema": SWEEP_SCHEMA_VERSION,
        "kind": "sweep",
        "name": spec.name,
        "base": _BASE,
        "description": spec.description,
        "mode": _MODE,
        "spec_digest": spec_digest(spec),
        "axes": [
            {"name": name, "values": list(values)}
            for name, values in spec.axes
        ],
        "fixed": dict(spec.fixed),
        "objectives": [
            {"metric": metric, "goal": _GOAL} for metric in OBJECTIVES
        ],
        "configs": [
            {
                "label": c.label,
                "params": dict(c.params),
                "metrics": dict(c.metrics),
                "dominated": c.dominated,
                "dominated_by": c.dominated_by,
            }
            for c in outcome.configs
        ],
        "frontier": outcome.frontier,
        "failed": list(outcome.failed),
    }


def write_sweep_artifact(path: Path | str, artifact: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")


def load_sweep_artifact(path: Path | str) -> dict:
    return json.loads(Path(path).read_text())


def discover_reports(
    sweeps_dir: Path | str = DEFAULT_SWEEPS_DIR,
) -> list[Path]:
    """Checked-in sweep report artifacts, sorted by sweep name."""
    root = Path(sweeps_dir)
    if not root.is_dir():
        return []
    return sorted(
        path for path in root.glob("*.json")
        if load_sweep_artifact(path).get("kind") == "sweep"
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_PERCENT_METRICS = {"miss_rate", "bank_utilization"}


def _format_metric(metric: str, value: float) -> str:
    if metric in _PERCENT_METRICS:
        return f"{value * 100:.3f} %"
    if float(value).is_integer() and abs(value) >= 1000:
        return f"{int(value):,}"
    return f"{value:.4f}"


def render_sweep_section(artifact: dict) -> str:
    """One sweep's markdown section for SWEEPS.md."""
    lines: list[str] = []
    out = lines.append
    out(f"## `{artifact['name']}` — base `{artifact['base']}`")
    out("")
    if artifact["description"]:
        out(f"{artifact['description']}.")
        out("")
    axes = ", ".join(
        f"`{axis['name']}` ∈ {{{', '.join(str(v) for v in axis['values'])}}}"
        for axis in artifact["axes"]
    )
    out(f"Axes ({artifact['mode']} expansion): {axes}.")
    if artifact["fixed"]:
        fixed = ", ".join(
            f"`{knob}={value}`"
            for knob, value in sorted(artifact["fixed"].items())
        )
        out(f"Fixed: {fixed}.")
    objectives = ", ".join(
        f"{o['metric']} ({o['goal']})" for o in artifact["objectives"]
    )
    out(f"Objectives: {objectives}.  Spec `artifacts/sweeps/"
        f"{artifact['name']}.toml`, digest `{artifact['spec_digest'][:16]}`.")
    out("")
    metrics = [o["metric"] for o in artifact["objectives"]]
    extra = sorted(
        {m for c in artifact["configs"] for m in c["metrics"]} - set(metrics)
    )
    columns = metrics + extra
    out("| configuration | " + " | ".join(columns) + " | verdict |")
    out("|---" * (len(columns) + 2) + "|")
    for config in artifact["configs"]:
        cells = [
            _format_metric(metric, config["metrics"][metric])
            if metric in config["metrics"] else "—"
            for metric in columns
        ]
        verdict = (
            f"dominated by `{config['dominated_by']}`"
            if config["dominated"] else "**frontier**"
        )
        out(f"| `{config['label']}` | " + " | ".join(cells)
            + f" | {verdict} |")
    out("")
    total = len(artifact["configs"])
    out(f"Frontier: {len(artifact['frontier'])} of {total} configurations; "
        f"{total - len(artifact['frontier'])} dominated.")
    if artifact["failed"]:
        out(f"Quarantined configurations (no metrics): "
            + ", ".join(f"`{label}`" for label in artifact["failed"]) + ".")
    return "\n".join(lines)


def generate_sweeps_md(artifacts: list[dict]) -> str:
    """The full SWEEPS.md text for the given sweep artifacts."""
    lines: list[str] = []
    out = lines.append
    out("# SWEEPS — design-space exploration reports")
    out("")
    out("<!-- Auto-generated by `python -m repro sweep report` from the")
    out("     artifacts under artifacts/sweeps/.  Do not edit by hand;")
    out("     scripts/check_docs.py fails when this file drifts. -->")
    out("")
    out(PREAMBLE)
    out("")
    if not artifacts:
        out("No sweep reports are checked in yet.  Author a spec under")
        out("`artifacts/sweeps/<name>.toml` and run "
            "`python -m repro sweep run <name>`.")
        out("")
    for artifact in sorted(artifacts, key=lambda a: a["name"]):
        out(render_sweep_section(artifact))
        out("")
    out("## Provenance")
    out("")
    out("Each sweep's metrics are a deterministic function of its spec")
    out("(fixed seeds, no timestamps); artifacts embed the spec digest,")
    out("not a code fingerprint, so this document only changes when the")
    out("swept results change.  Wall-clock and cache behaviour live in")
    out("the `--metrics-out` JSON of the producing run.")
    out("")
    out(f"- sweeps: {len(artifacts)}, configurations: "
        f"{sum(len(a['configs']) for a in artifacts)}, dominated: "
        f"{sum(len(a['configs']) - len(a['frontier']) for a in artifacts)}")
    out("")
    return "\n".join(lines)


def regenerate_doc(
    sweeps_dir: Path | str = DEFAULT_SWEEPS_DIR,
    doc_path: Path | str = DEFAULT_SWEEPS_DOC,
) -> list[Path]:
    """Rewrite SWEEPS.md from the checked-in artifacts; returns them."""
    reports = discover_reports(sweeps_dir)
    artifacts = [load_sweep_artifact(path) for path in reports]
    Path(doc_path).write_text(generate_sweeps_md(artifacts))
    return reports


def check_sweeps_drift(repo_root: Path | str = ".") -> list[str]:
    """Diff the checked-in SWEEPS.md against a regeneration from the
    checked-in sweep artifacts; also flag reports with no paired spec
    and reports whose spec was edited after the sweep ran.  Empty
    list = in sync."""
    root = Path(repo_root)
    reports = discover_reports(root / DEFAULT_SWEEPS_DIR)
    artifacts = [load_sweep_artifact(path) for path in reports]
    problems: list[str] = []
    for path, artifact in zip(reports, artifacts):
        spec_path = root / DEFAULT_SWEEPS_DIR / f"{artifact['name']}.toml"
        if not spec_path.exists():
            problems.append(
                f"{path} has no paired spec {spec_path.name}; delete the "
                f"report or restore its spec"
            )
            continue
        digest = spec_digest(load_spec(spec_path))
        if digest != artifact["spec_digest"]:
            problems.append(
                f"{spec_path} was edited after its report was generated "
                f"(spec digest {digest[:16]} != report's "
                f"{artifact['spec_digest'][:16]}); rerun "
                f"`python -m repro sweep run {artifact['name']}`"
            )
    expected = generate_sweeps_md(artifacts)
    doc = root / DEFAULT_SWEEPS_DOC
    actual = doc.read_text() if doc.exists() else ""
    if expected != actual:
        problems.extend(difflib.unified_diff(
            actual.splitlines(), expected.splitlines(),
            fromfile="SWEEPS.md (checked in)",
            tofile="SWEEPS.md (regenerated from artifacts/sweeps/)",
            lineterm="",
        ))
    return problems
