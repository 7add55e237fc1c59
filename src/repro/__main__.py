"""Command-line experiment runner.

    python -m repro list                 # show available experiments
    python -m repro table4               # regenerate one table/figure
    python -m repro all --jobs 4         # everything, across 4 workers
    python -m repro all                  # second time: served from cache
    python -m repro docs                 # regenerate EXPERIMENTS.md
    python -m repro figures13-17 --procs 1,2,4
    python -m repro check                # static verification suite
    python -m repro sweep run <name>     # design-space exploration

Rendered tables go to **stdout** and are byte-identical for any
``--jobs`` value and cache state (fixed seeds, independent shards);
progress, timing and the metrics summary go to stderr.  Results are
cached under ``.repro-cache/`` keyed by (experiment, parameters, code
fingerprint) — a source change in an experiment's dependency slice
invalidates its entries.  Rerunning an interrupted command serves what
it finished from the cache and computes only the rest.

The run flags (``--jobs``, ``--no-cache``, ``--metrics-out``,
``--task-timeout``, ``--fail-fast``, ``--trace``, ...) and
their setup come from :mod:`repro.runner.session`, shared with
``python -m repro sweep run``.  This module adds only the experiment
selection (``--only``, ``--skip``), the per-experiment knobs
(``--procs``, ``--trace-len``) and the ``docs`` outputs
(``--artifacts``, ``--docs-out``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import CLI_KNOBS, SPECS, run_experiments
from repro.analysis.docs import (
    DEFAULT_ARTIFACTS_PATH,
    DEFAULT_DOC_PATH,
    build_artifacts,
    generate_experiments_md,
    render_result,
    write_artifacts,
)
from repro.runner.metrics import STATUS_QUARANTINED
from repro.runner.session import add_run_flags, open_session, positive_int


def _csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _procs(value: str) -> tuple[int, ...]:
    return tuple(positive_int(item) for item in _csv(value))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "check":
        # The verification suite has its own flags (--only over passes,
        # --format); hand off before the experiment parser sees them.
        from repro.check.cli import main as check_main

        return check_main(argv[1:])
    if argv and argv[0] == "sweep":
        # Design-space sweeps have their own verbs (run/report/list);
        # hand off before the experiment parser sees them.
        from repro.sweep.cli import main as sweep_main

        return sweep_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name (see 'list'), 'all', 'docs', 'list', "
             "'check' (static verification; see 'check --help'), "
             "or 'sweep' (design-space exploration; see 'sweep --help')",
    )
    parser.add_argument(
        "--procs",
        type=_procs,
        help="comma-separated processor counts for figures13-17",
        default=None,
    )
    parser.add_argument(
        "--trace-len",
        type=positive_int,
        default=None,
        help="trace length for miss-rate/CPI experiments",
    )
    add_run_flags(parser)
    parser.add_argument(
        "--only",
        default=None,
        metavar="NAMES",
        help="comma-separated subset of the selection to run",
    )
    parser.add_argument(
        "--skip",
        default=None,
        metavar="NAMES",
        help="comma-separated experiments to exclude from the selection",
    )
    parser.add_argument(
        "--artifacts",
        default=str(DEFAULT_ARTIFACTS_PATH),
        metavar="PATH",
        help="artifacts JSON written by 'docs' (default artifacts/experiments.json)",
    )
    parser.add_argument(
        "--docs-out",
        default=str(DEFAULT_DOC_PATH),
        metavar="PATH",
        help="EXPERIMENTS.md path written by 'docs'",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, spec in SPECS.items():
            print(f"{name:14s} {spec.paper_ref:28s} {spec.summary}")
        return 0

    docs_mode = args.experiment == "docs"
    if args.experiment in ("all", "docs"):
        names = list(SPECS)
    else:
        names = [args.experiment]

    requested = set(names)
    if args.only:
        requested &= set(_csv(args.only))
    if args.skip:
        requested -= set(_csv(args.skip))
    selected = [name for name in names if name in requested]

    unknown = sorted(
        (set(names) | set(_csv(args.only or "")) | set(_csv(args.skip or "")))
        - set(SPECS)
    )
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(SPECS)}", file=sys.stderr)
        return 2
    if not selected:
        print("selection is empty (check --only/--skip)", file=sys.stderr)
        return 2
    if docs_mode and (args.only or args.skip):
        print("docs regenerates every experiment; --only/--skip do not apply",
              file=sys.stderr)
        return 2

    # Validate the per-experiment knobs instead of silently dropping them:
    # each flag is applied to the experiments that accept it, with a
    # warning naming the ones that ignore it.
    provided: dict[str, object] = {}
    if args.procs is not None:
        provided["procs"] = args.procs
    if args.trace_len is not None:
        provided["trace_len"] = args.trace_len
    overrides: dict[str, dict[str, object]] = {}
    for flag, value in provided.items():
        takers = [n for n in selected if flag in SPECS[n].accepts]
        ignored = [n for n in selected if flag not in SPECS[n].accepts]
        option = "--" + flag.replace("_", "-")
        if not takers:
            print(
                f"warning: {option} has no effect — none of the selected "
                f"experiments ({', '.join(selected)}) accept it",
                file=sys.stderr,
            )
            continue
        if ignored:
            print(
                f"note: {option} ignored by {', '.join(ignored)} "
                "(not applicable)",
                file=sys.stderr,
            )
        for name in takers:
            overrides.setdefault(name, {})[CLI_KNOBS[flag]] = value

    session = open_session(args)
    if isinstance(session, int):
        return session
    ran = session.run(run_experiments, selected, overrides)
    if isinstance(ran, int):
        return ran
    results, metrics = ran

    for name in selected:
        if results[name] is not None:
            print(render_result(results[name]))
        tasks = [t for t in metrics.tasks if t.experiment == name]
        wall = sum(t.wall_s for t in tasks)
        hits = sum(1 for t in tasks if t.cache == "hit")
        bad = sum(1 for t in tasks if t.status == STATUS_QUARANTINED)
        summary = f"{hits}/{len(tasks)} cached" if session.cache \
            else "cache off"
        if bad:
            summary += f", {bad} quarantined"
        if results[name] is None:
            summary += " — every shard quarantined, nothing to render"
        print(f"[{name}: {wall:.1f}s, {summary}]\n", file=sys.stderr)

    status = session.finish(metrics)
    if status:
        return status

    if docs_mode:
        artifacts = build_artifacts(results, metrics, session.fingerprint)
        write_artifacts(args.artifacts, artifacts)
        Path(args.docs_out).write_text(generate_experiments_md(artifacts))
        print(f"wrote {args.artifacts} and {args.docs_out}", file=sys.stderr)

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
