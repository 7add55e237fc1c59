"""Auto-generation of EXPERIMENTS.md and SWEEPS.md from runner artifacts.

``python -m repro docs`` runs every registered experiment through the
parallel runner (instant when cached).  It stores the deterministic
outcome of each paper experiment — rendered tables, simulator event
tallies, the code fingerprint — in ``artifacts/experiments.json`` and
rewrites EXPERIMENTS.md from it; each sweep's artifact goes to
``artifacts/sweeps/<name>.json`` and SWEEPS.md is rewritten from those
(:mod:`repro.sweep.report`).  EXPERIMENTS.md has two kinds of content:

- **authored commentary** (the paper-vs-measured claims tables below,
  curated by humans when the model changes), and
- **mechanical sections** (the measured output blocks and the run
  metadata footer), regenerated verbatim from the artifacts.

``scripts/check_docs.py`` (and the tier-1 tests wrapping it) calls
:func:`check_drift`, which regenerates both documents from the
checked-in artifacts into buffers and diffs them against the checked-in
files, so neither can drift silently.  Everything embedded in the
documents is deterministic — fixed seeds, no timestamps, no wall times
— which is what makes the zero-diff check possible; timing lives in
the separate ``--metrics-out`` JSON.
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path
from typing import Any

ARTIFACTS_SCHEMA_VERSION = 1
DEFAULT_ARTIFACTS_PATH = Path("artifacts") / "experiments.json"
DEFAULT_DOC_PATH = Path("EXPERIMENTS.md")

# ---------------------------------------------------------------------------
# Authored commentary (curate here, never in EXPERIMENTS.md directly)
# ---------------------------------------------------------------------------

PREAMBLE = """\
Every table and figure of the paper's evaluation, paper-reference vs
measured.  Measured values come from the default configuration (trace
length 100-120 K references, 10-15 K GSPN instructions, default SPLASH
sizes, fixed seeds); absolute numbers shift a little with trace length
but the comparisons are stable.  The substrate is a simulator rather
than the authors' testbed, so the criterion is **shape**: direction of
every comparison the paper draws, and rough magnitude of every factor
it quotes.

Conventions: "prop" = the proposed integrated device; "conv NK" =
conventional direct-mapped cache of N KB with 32 B lines; check-mark =
direction and rough magnitude reproduced, ~ = direction reproduced with
a noted magnitude gap.\
"""

COMMENTARY: dict[str, str] = {
    "table1": """\
| quantity | paper | measured | verdict |
|---|---|---|---|
| Spec-class: SS-10 faster | 89 vs 64 SpecInt (1.39x) | 1.31x faster | ok |
| Synopsys: SS-5 faster | 32 vs 44 min (1.375x) | 31.1 vs 41.7 min (1.34x) | ok |\
""",
    "crossover": """\
Derived experiment (not a paper table): the break-even main-memory
latency at which a conventional system falls behind the integrated
device.  Even an 8-cycle conventional memory loses to the integrated
device for gcc/swim/apsi.\
""",
    "figure2": """\
| feature | paper | measured | verdict |
|---|---|---|---|
| SS-10 wins while the array fits its 1 MB L2 | yes | 102 ns vs 262 ns at 512 KB | ok |
| SS-5 wins beyond the L2 | yes | 262 ns vs 705 ns at >=2 MB | ok |
| SS-10 prefetch hides small strides (footnote 2) | yes | modelled via `prefetch_threshold_bytes` | ok |\
""",
    "figure7": """\
| claim (Section 5.2) | paper | measured | verdict |
|---|---|---|---|
| applu/compress/swim/mgrid/ijpeg fit 8 KB | ~0 everywhere | all <=0.01 % on prop | ok |
| prop beats conventional of >2x size, almost all apps | yes | 18 of 19 (turb3d excepted) | ok |
| fpppp long-line factor vs conv 8K | 11.2x | 15.6x (0.76 % vs 11.9 %) | ok |
| fpppp vs conv 16K | 8.2x | 14x | ~ (stronger than paper) |
| fpppp fits 64 KB conventional | ~fits | conv 64K at 1.28 % (residual conflicts) | ~ |
| turb3d is the only inversion (loop/callee aliasing) | yes | prop 0.85 % vs conv 8K 0.13 % | ok |
| perl high but below conv of same size | yes | 1.08 % vs 4.65 % | ok |
| gcc "within 27 % of a 64 KB conventional" | prop ~ 1.27x conv64 | prop 0.58 % vs conv64 1.38 % — prop lands *below* conv64 | ~ (prop between conv-32K and conv-64K behaviour; our cold-code model charges conventional caches more per episode migration) |\
""",
    "figure8": """\
| claim (Sections 5.3-5.4) | paper | measured | verdict |
|---|---|---|---|
| mgrid: prop >=10x better than conv same size | >10x | 15.6x (0.32 % vs 5.0 %) | ok |
| hydro2d: marked long-line win | ~10x | 9.3x (0.90 % vs 8.35 %) | ok |
| tomcatv/swim/su2cor: prop (no victim) ~5x worse than conv 16K | ~5x | 3.7x / 4.6x / 3.2x | ok |
| victim returns them to ~ conv 2-way 16K | yes | 4.5-5.0 % vs 8.3 % (below 2-way) | ok |
| swim/wave5/li: victim cuts 2-5x | 2-5x | 7.9x / 4.6x / 2.3x | ok |
| go: victim helps ~25 %, long lines still a net loss | 25 % | 23 % cut; prop 11.9 % > conv16 6.6 % | ok |
| victim beats conv 16K DM in all but one app | 1 exception | 2 exceptions (go, perl) | ~ |
| go absolute miss level | ~0.3 (from CPI arithmetic) | 0.12 | ~ (lower magnitude, same ordering) |\
""",
    "figure11": """\
| claim (Section 5.5) | paper | measured | verdict |
|---|---|---|---|
| conventional: memory latency can cost up to ~2x raw CPI | <=2x | gcc 1.87->3.80 over 10->50-cycle memory (2.0x) | ok |
| apsi = high raw CPI, gcc = low | yes | apsi starts 2.11, gcc 1.87; gcc's slope steeper (more misses) | ok |\
""",
    "figure12": """\
| claim (Section 5.5) | paper | measured | verdict |
|---|---|---|---|
| integrated at 30 ns: +10-25 % over raw CPI | 10-25 % | gcc +21 %, apsi +0.9 % (apsi's D-misses are tiny in our proxy) | ok/~ |\
""",
    "table3": """\
Spec'95 CPI estimates without the victim cache; the interesting story is
the Table 3 -> Table 4 victim-cache deltas, discussed under `table4`.\
""",
    "table4": """\
14 of 18 totals within 10 % of the paper, 18 of 18 within 13 %.  The
victim-cache deltas (Table 3 -> Table 4) reproduce where they matter:
tomcatv 0.61->0.10 memory CPI (paper 0.50->0.08), swim 0.78->0.11 (paper
0.97->0.09), wave5 0.62->0.16 (paper 0.25->0.11).  Known gap: go's
memory CPI is low (0.16 vs paper 0.29) because our go proxy's D-miss
magnitude is below the paper's (see the `figure8` note).\
""",
    "section5.6": """\
| claim | paper | measured | verdict |
|---|---|---|---|
| CPI differences below simulation noise for 4/8/16 banks | yes | max/min CPI ratio 1.02 over {2,4,8,16} | ok |
| gcc bank utilization 16 banks | 1.2 % | 2.0 % | ok |
| gcc bank utilization 2 banks | 9.6 % | 15.4 % | ~ (same ~8x scaling) |\
""",
    "figures13-17": """\
Execution times in cycles, default scaled data sets
(LU 64x64 / block 4; MP3D 1200 particles, 12^3 cells, 6 steps; OCEAN
64x64, 6 iterations; WATER 48 molecules x600 B, 3 steps; PTHOR 1500
gates, 25 steps — Table 5 used 200x200, 10 K particles, 128x128, 288
molecules, 1000 steps respectively).

| claim (Section 6.2) | paper | measured | verdict |
|---|---|---|---|
| integrated outperforms reference at small p, all apps | yes | true at p=1 for all five kernels | ok |
| LU: clean scaling, integrated best, no-victim worst | Fig 13 | 450 K->91 K cycles (1->16 p); no-victim 1.5x slower | ok |
| MP3D: worst scaler, systems converge at high p | Fig 14 | flattens past p=4; all three within 1.3 % at p=16 | ok |
| OCEAN: reference better than plain column buffers | Fig 15 | no-victim ~ reference (within 0.5 %), not clearly worse | ~ |
| WATER: the one case where reference beats no-victim integrated | Fig 16 | p=4: reference 40.5 K < no-victim 50.2 K; victim brings integrated to 40.1 K (best) | ok |
| victim cuts WATER up to 2x | <=2x | 1.25x at p=2-4 | ~ |
| PTHOR: integrated wins small p, converges | Fig 17 | 63.5 K vs 90.4 K at p=1; within 2 % at p=16 | ok |
| with victim, integrated best overall | yes | best or tied-best for all kernels at p>=4 | ok |

Known deviations, both recorded above: OCEAN's no-victim configuration
ties the reference instead of losing to it (our 5-point stencil re-reads
remote boundary blocks too few times per sweep for the INC's extra cycle
to bite), and PTHOR/OCEAN absolute speedups at 16 processors are milder
than the paper's figures because the scaled-down data sets shrink the
per-processor working set faster.\
""",
}

EXTRA_SECTIONS = """\
## Extensions (bench: `test_bench_extensions`)

Paper claims outside the tables, made quantitative:

| claim | paper | measured |
|---|---|---|
| protocol engines support S-COMA too (Section 4.2) | stated | LU on S-COMA within 5 % of CC-NUMA; S-COMA 3.7x faster when the imported working set exceeds the INC, 4.7x slower on single-touch pages |
| speculative writebacks hide dirty-line retirement (Section 4.1) | stated | 100 % of swim's dirty-column writebacks absorbed into idle bank cycles; conventional policy serializes all of them on the miss path |
| Table 6 assumes unsaturated protocol engines (Section 4.2) | implicit | LU/Ocean runs keep mean engine occupancy well under 10 % |
| framebuffer from main memory is feasible (Section 8) | stated | 1280x1024x24 @72 Hz = 0.28 GB/s = 18 % of one datapath's 1.6 GB/s |
| longer lines for fewer banks degrade performance (Section 5.6) | stated | tomcatv D-miss 31.8 % -> 59.9 % going 16x512 B -> 4x2048 B at constant capacity |
| conventional break-even memory latency (derived) | — | even an 8-cycle conventional memory loses to the integrated device for gcc/swim/apsi (`python -m repro crossover`) |

## Ablations (bench: `test_bench_ablations`)

Beyond the paper: victim-size sweep (16 entries capture >=90 % of the
achievable conflict absorption on tomcatv), scoreboard-rate sweep (no
scoreboard costs swim ~40 % more memory CPI than rate 1.0), and the
ECC-widening arithmetic (12.5 % -> 7 % overhead, exactly 14 bits freed
per 32 B block).

## Tooling: static verification

Every number above is produced by code that `python -m repro check`
(see CHECKS.md) verifies statically before anything runs: exhaustive
model checking of the directory protocol at small node/block counts,
P/T-invariant analysis of every GSPN behind Figures 9-12 and the
Section 5.6 bank sweep, and determinism lints over the source tree.
CI runs it alongside `scripts/check_docs.py`; a non-zero exit blocks
the build.\
"""


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def render_result(result: Any) -> str:
    """Render an experiment result (or list of results) to text."""
    if isinstance(result, list):
        return "\n\n".join(item.render() for item in result)
    return result.render()


def build_artifacts(results: dict[str, Any], metrics: Any,
                    fingerprint: str) -> dict:
    """Deterministic per-experiment records for docs regeneration.

    ``results`` maps paper experiment name to its (merged) result object
    and ``metrics`` is the :class:`~repro.runner.metrics.RunMetrics` of the
    run that produced them.  Wall times are deliberately excluded —
    everything here must be byte-stable across reruns.
    """
    from repro.analysis.registry import SPECS

    records = []
    for name, result in results.items():
        spec = SPECS[name]
        records.append({
            "name": name,
            "paper_ref": spec.paper_ref,
            "summary": spec.summary,
            "modules": list(spec.modules),
            "tasks": sum(1 for t in metrics.tasks if t.experiment == name),
            "tallies": metrics.tallies_for(name),
            "rendered": render_result(result),
        })
    return {
        "schema": ARTIFACTS_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "results": records,
    }


def write_artifacts(path: Path | str, artifacts: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifacts, indent=2, sort_keys=True) + "\n")


def load_artifacts(path: Path | str) -> dict:
    return json.loads(Path(path).read_text())


def write_docs(results: dict[str, Any], metrics: Any, fingerprint: str,
               artifacts_path: Path | str, doc_path: Path | str) -> list[Path]:
    """Write every document ``repro docs`` owns; returns the paths.

    The paper experiments of ``results`` go to ``artifacts_path`` and
    ``doc_path`` (EXPERIMENTS.md); each sweep's artifact goes to the
    ``sweeps/`` directory beside ``artifacts_path``, and SWEEPS.md
    beside ``doc_path``.
    """
    from repro.analysis.registry import PAPER
    from repro.sweep.report import SWEEPS_DOC, generate_sweeps_md

    artifacts_path, doc_path = Path(artifacts_path), Path(doc_path)
    artifacts = build_artifacts(
        {name: result for name, result in results.items() if name in PAPER},
        metrics, fingerprint)
    write_artifacts(artifacts_path, artifacts)
    doc_path.write_text(generate_experiments_md(artifacts))
    written = [artifacts_path, doc_path]
    sweeps = [result.artifact for name, result in results.items()
              if name not in PAPER]
    for sweep in sweeps:
        path = artifacts_path.parent / "sweeps" / f"{sweep['name']}.json"
        write_artifacts(path, sweep)
        written.append(path)
    sweeps_doc = doc_path.with_name(SWEEPS_DOC)
    sweeps_doc.write_text(generate_sweeps_md(sweeps))
    return [*written, sweeps_doc]


# ---------------------------------------------------------------------------
# Document generation
# ---------------------------------------------------------------------------


def generate_experiments_md(artifacts: dict) -> str:
    """The full EXPERIMENTS.md text for one artifacts payload."""
    lines: list[str] = []
    out = lines.append
    out("# EXPERIMENTS — paper vs measured")
    out("")
    out("<!-- Auto-generated by `python -m repro docs`.  Edit the")
    out("     commentary in src/repro/analysis/docs.py, then regenerate;")
    out("     scripts/check_docs.py fails when this file drifts from")
    out("     artifacts/experiments.json. -->")
    out("")
    out(PREAMBLE)
    out("")
    for record in artifacts["results"]:
        name = record["name"]
        out(f"## {record['paper_ref']} — `{name}`")
        out("")
        summary = record["summary"]
        out(summary[:1].upper() + summary[1:] + ".  Modules: "
            + ", ".join(f"`{m}`" for m in record["modules"]) + ".")
        out("")
        commentary = COMMENTARY.get(name)
        if commentary:
            out(commentary)
            out("")
        out(f"Measured (`python -m repro {name}`):")
        out("")
        out("```text")
        out(record["rendered"])
        out("```")
        out("")
    out(EXTRA_SECTIONS)
    out("")
    out("## Run metadata")
    out("")
    out("Generated by `python -m repro docs` from "
        "`artifacts/experiments.json`; deterministic by construction "
        "(fixed seeds, no timestamps).  Wall-clock and cache metrics "
        "live in the `--metrics-out` JSON, not here.")
    out("")
    out(f"- code fingerprint: `{artifacts['fingerprint'][:16]}`")
    out(f"- experiments: {len(artifacts['results'])}, tasks: "
        f"{sum(r['tasks'] for r in artifacts['results'])}")
    out("")
    out("| experiment | tasks | GSPN firings | MP ops |")
    out("|---|---|---|---|")
    for record in artifacts["results"]:
        tallies = record["tallies"]
        out("| `{}` | {} | {} | {} |".format(
            record["name"],
            record["tasks"],
            f"{tallies['gspn_firings']:,}" if "gspn_firings" in tallies else "—",
            f"{tallies['mp_ops']:,}" if "mp_ops" in tallies else "—",
        ))
    out("")
    return "\n".join(lines)


def check_drift(repo_root: Path | str = ".") -> list[str]:
    """Diff the checked-in EXPERIMENTS.md and SWEEPS.md against
    regenerations from the checked-in artifacts (for SWEEPS.md, also
    against the specs: :func:`repro.sweep.report.check_sweeps_drift`).
    Empty list = both in sync."""
    from repro.sweep.report import check_sweeps_drift

    root = Path(repo_root)
    artifacts = load_artifacts(root / DEFAULT_ARTIFACTS_PATH)
    expected = generate_experiments_md(artifacts)
    actual = (root / DEFAULT_DOC_PATH).read_text()
    return list(difflib.unified_diff(
        actual.splitlines(), expected.splitlines(),
        fromfile="EXPERIMENTS.md (checked in)",
        tofile="EXPERIMENTS.md (regenerated from artifacts)",
        lineterm="",
    )) + check_sweeps_drift(root)
