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
fingerprint) — any source change invalidates the cache.  See
``--metrics-out`` for the per-task JSON (wall time, cache hit/miss,
event tallies, worker utilization), ``--trace`` for a Chrome
trace-event timeline of every modeling layer, and ``--perf-summary``
for the per-run throughput benchmark JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs
from repro.analysis import CLI_KNOBS, SPECS, run_experiments
from repro.analysis.docs import (
    DEFAULT_ARTIFACTS_PATH,
    DEFAULT_DOC_PATH,
    build_artifacts,
    generate_experiments_md,
    render_result,
    write_artifacts,
)
from repro.faults import FaultPlan, FaultPlanError
from repro.runner import (
    FailFastError,
    ResultCache,
    RunJournal,
    SupervisionPolicy,
    default_cache_dir,
    sigterm_interrupts,
)


def _csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


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
        help="comma-separated processor counts for figures13-17",
        default=None,
    )
    parser.add_argument(
        "--trace-len",
        type=int,
        default=None,
        help="trace length for miss-rate/CPI experiments",
    )
    parser.add_argument(
        "--jobs", "-j",
        type=int,
        default=1,
        help="worker processes for independent experiment shards (default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything, and do not store results",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default .repro-cache, or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write per-task run metrics (wall time, cache status, event "
             "tallies) as JSON",
    )
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
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock limit; a stuck worker is killed, "
             "replaced, and the task retried (default: no limit)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts for a crashed/hung/failed shard before it "
             "is quarantined (default 1)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip shards journaled as completed by an interrupted run "
             "(requires the cache; journal lives under the cache root)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the sweep on the first quarantined shard instead of "
             "completing the healthy ones",
    )
    parser.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="LABEL=KIND",
        help="deterministic fault injection for testing: fault shards "
             "matching LABEL (fnmatch, e.g. 'figure7/*') with KIND "
             "(crash, hang, raise, corrupt), optionally only the first "
             "N attempts (':N'); repeatable, also read from $REPRO_INJECT",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="enable span tracing and write a Chrome trace-event JSON "
             "(load in Perfetto / chrome://tracing) covering every "
             "modeling layer",
    )
    parser.add_argument(
        "--perf-summary",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="enable span tracing and write a per-run perf summary "
             "(wall time, events/sec per stage); default path "
             "artifacts/bench/BENCH_<fingerprint>.json",
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
        provided["procs"] = tuple(int(p) for p in _csv(args.procs))
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

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())

    if args.resume and cache is None:
        print("--resume needs the result cache (drop --no-cache)",
              file=sys.stderr)
        return 2
    try:
        faults = FaultPlan.parse(args.inject or []) if args.inject \
            else FaultPlan()
        faults = FaultPlan(faults.specs + FaultPlan.from_env().specs)
    except FaultPlanError as exc:
        print(f"bad --inject / $REPRO_INJECT: {exc}", file=sys.stderr)
        return 2
    try:
        policy = SupervisionPolicy(
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            fail_fast=args.fail_fast,
        )
    except ValueError as exc:
        print(f"bad supervision flags: {exc}", file=sys.stderr)
        return 2
    journal = RunJournal(cache.root, cache.fingerprint) if cache else None

    tracing = args.trace is not None or args.perf_summary is not None
    spans_before = 0
    if tracing:
        # Enable before any worker spawns so pooled workers inherit the
        # flag (via $REPRO_TRACE) and their spans ride back with results.
        obs.enable()
        spans_before = obs.mark()

    def write_partial(partial) -> None:
        if args.metrics_out:
            partial.write(args.metrics_out)

    try:
        # SIGTERM takes the KeyboardInterrupt path: live workers are
        # terminated and the journal stays flushed, so a `kill` is as
        # resumable as a Ctrl-C.
        with sigterm_interrupts():
            results, metrics = run_experiments(
                selected, overrides, jobs=args.jobs, cache=cache,
                policy=policy, faults=faults or None,
                journal=journal, resume=args.resume, on_partial=write_partial,
            )
    except KeyboardInterrupt:
        print("\ninterrupted — completed shards are journaled and cached; "
              "rerun with --resume to pick up where this run stopped",
              file=sys.stderr)
        return 130
    except FailFastError as exc:
        print(f"fail-fast: {exc}", file=sys.stderr)
        print("completed shards are journaled and cached; rerun with "
              "--resume after fixing the failure", file=sys.stderr)
        return 1

    for name in selected:
        if results[name] is not None:
            print(render_result(results[name]))
        tasks = [t for t in metrics.tasks if t.experiment == name]
        wall = sum(t.wall_s for t in tasks)
        hits = sum(1 for t in tasks if t.cache in ("hit", "resumed"))
        bad = sum(1 for t in tasks if t.status == "quarantined")
        status = f"{hits}/{len(tasks)} cached" if cache else "cache off"
        if bad:
            status += f", {bad} quarantined"
        if results[name] is None:
            status += " — every shard quarantined, nothing to render"
        print(f"[{name}: {wall:.1f}s, {status}]\n", file=sys.stderr)

    print(metrics.render(), file=sys.stderr)
    if args.metrics_out:
        metrics.write(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)

    if tracing:
        from repro.obs import export as obs_export

        records = obs.since(spans_before)
        if args.trace is not None:
            obs_export.write_chrome_trace(args.trace, records)
            print(f"trace written to {args.trace} "
                  f"({len(records)} spans)", file=sys.stderr)
        if args.perf_summary is not None:
            fingerprint = cache.fingerprint if cache else None
            if fingerprint is None:
                from repro.runner import code_fingerprint

                fingerprint = code_fingerprint()
            summary = obs_export.perf_summary(
                records,
                fingerprint=fingerprint,
                jobs=args.jobs,
                wall_s=metrics.wall_s,
            )
            bench_path = (Path(args.perf_summary) if args.perf_summary
                          else obs_export.default_bench_path(fingerprint))
            obs_export.write_perf_summary(bench_path, summary)
            print(f"perf summary written to {bench_path}", file=sys.stderr)

    if metrics.quarantined:
        print(f"run finished with {metrics.quarantined} quarantined "
              f"shard(s); see the metrics for tracebacks", file=sys.stderr)
        return 1

    if docs_mode:
        fingerprint = cache.fingerprint if cache else None
        if fingerprint is None:
            from repro.runner import code_fingerprint

            fingerprint = code_fingerprint()
        artifacts = build_artifacts(results, metrics, fingerprint)
        write_artifacts(args.artifacts, artifacts)
        Path(args.docs_out).write_text(generate_experiments_md(artifacts))
        print(f"wrote {args.artifacts} and {args.docs_out}", file=sys.stderr)

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
