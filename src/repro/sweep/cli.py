"""The ``python -m repro sweep`` command-line interface.

    python -m repro sweep list                  # checked-in sweep specs
    python -m repro sweep run fig7-line-bank    # expand, fan out, reduce
    python -m repro sweep run path/to/spec.toml --jobs 4
    python -m repro sweep report                # regenerate SWEEPS.md

``run`` resolves its argument as a checked-in spec name under
``artifacts/sweeps/`` or a path to a TOML spec, validates it (every
violation is a named ``SweepSpecError`` rule), executes the expanded
grid through the same supervised pool as ``python -m repro
<experiment>`` and writes the deterministic report artifact next to
the spec (``<spec>.json``) unless ``--report-out`` names another
path.  Its run flags (``--jobs``, ``--no-cache``, ``--cache-dir``,
``--metrics-out``, ``--trace``) and their setup come from
:mod:`repro.runner.session`, shared with the experiment CLI; only
``--report-out`` and ``--no-report`` are its own.  ``report`` only
rereads checked-in artifacts; it never recomputes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.runner.session import add_run_flags, open_session
from repro.sweep.engine import run_sweep
from repro.sweep.points import OBJECTIVES
from repro.sweep.report import (
    DEFAULT_SWEEPS_DOC,
    build_sweep_artifact,
    regenerate_doc,
    write_sweep_artifact,
)
from repro.sweep.spec import (
    DEFAULT_SWEEPS_DIR,
    SweepSpecError,
    discover_specs,
    load_spec,
    resolve_spec,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Declarative design-space sweeps over the registry.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    verbs.add_parser(
        "list", help="show the checked-in sweep specs under artifacts/sweeps/"
    )

    report = verbs.add_parser(
        "report", help="regenerate SWEEPS.md from the checked-in artifacts"
    )
    report.add_argument(
        "--out",
        default=str(DEFAULT_SWEEPS_DOC),
        metavar="PATH",
        help="SWEEPS.md path (default SWEEPS.md)",
    )

    run = verbs.add_parser(
        "run", help="expand a sweep spec and run every configuration"
    )
    run.add_argument(
        "spec",
        help="checked-in sweep name (see 'list') or a path to a "
             "TOML spec file",
    )
    add_run_flags(run)
    run.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="sweep report artifact path (default: next to the spec, "
             "with a .json suffix)",
    )
    run.add_argument(
        "--no-report",
        action="store_true",
        help="run and print the frontier without writing the artifact",
    )
    return parser


def _cmd_list() -> int:
    specs = discover_specs()
    if not specs:
        print(f"no sweep specs under {DEFAULT_SWEEPS_DIR}/", file=sys.stderr)
        return 0
    for path in specs:
        try:
            spec = load_spec(path)
        except SweepSpecError as exc:
            print(f"{path.stem:18s} INVALID [{exc.rule}]: {exc}")
            continue
        axes = "×".join(str(len(values)) for _, values in spec.axes)
        print(f"{spec.name:18s} {len(spec.configs()):3d} configs ({axes})  "
              f"{spec.description}")
    return 0


def _cmd_report(out: str) -> int:
    reports = regenerate_doc(doc_path=out)
    print(f"wrote {out} from {len(reports)} sweep artifact(s)",
          file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec_path = resolve_spec(args.spec)
        spec = load_spec(spec_path)
    except SweepSpecError as exc:
        print(f"invalid sweep spec [{exc.rule}]: {exc}", file=sys.stderr)
        return 2

    session = open_session(args)
    configs = spec.configs()
    print(f"sweep {spec.name}: {len(configs)} configurations "
          f"({'×'.join(str(len(v)) for _, v in spec.axes)})",
          file=sys.stderr)
    ran = session.run(run_sweep, spec)
    if isinstance(ran, int):
        return ran
    outcome, metrics = ran

    print(f"[{spec.name}: {metrics.wall_s:.1f}s, "
          f"{metrics.hits}/{len(metrics.tasks)} cached]", file=sys.stderr)
    session.finish(metrics)

    # The human-readable reduction goes to stdout, like rendered tables.
    print(f"sweep {spec.name}: frontier {len(outcome.frontier)} of "
          f"{len(outcome.configs)} configurations")
    for result in outcome.configs:
        shown = ", ".join(
            f"{metric}={result.metrics[metric]:.4f}" for metric in OBJECTIVES
        )
        verdict = (f"dominated by {result.dominated_by}"
                   if result.dominated else "frontier")
        print(f"  {result.label:40s} {shown}  [{verdict}]")

    if not args.no_report:
        artifact = build_sweep_artifact(outcome)
        out = Path(args.report_out) if args.report_out \
            else spec_path.with_suffix(".json")
        write_sweep_artifact(out, artifact)
        print(f"report written to {out}", file=sys.stderr)

    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb == "list":
        return _cmd_list()
    if args.verb == "report":
        return _cmd_report(args.out)
    return _cmd_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
