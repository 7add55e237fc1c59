"""``python -m repro check`` — run the static verification suite.

    python -m repro check                    # all five passes
    python -m repro check --only protocol
    python -m repro check --only units --format json
    python -m repro check --skip lints --format json

Exit status: 0 if no pass reported an error finding, 1 otherwise, 2 on
usage errors (unknown pass names, empty selection).  Warnings are
reported but never fail the run.
"""

from __future__ import annotations

import argparse
import sys

from repro.check.deps import check_deps
from repro.check.gspn import check_gspn_models
from repro.check.lints import lint_paths
from repro.check.protocol import check_protocol
from repro.check.report import CheckReport
from repro.check.units import check_units

PASS_NAMES: tuple[str, ...] = ("protocol", "gspn", "lints", "deps", "units")

_RUNNERS = {
    "protocol": check_protocol,
    "gspn": check_gspn_models,
    "lints": lint_paths,
    "deps": check_deps,
    "units": check_units,
}


def _csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def select_passes(
    only: str | None, skip: str | None
) -> tuple[list[str], list[str]]:
    """``(selected, unknown)`` in declaration order, mirroring the runner
    CLI's --only/--skip validation: unknown names are an error, not a
    silent no-op."""
    requested = set(PASS_NAMES)
    if only:
        requested &= set(_csv(only))
    if skip:
        requested -= set(_csv(skip))
    unknown = sorted(
        (set(_csv(only or "")) | set(_csv(skip or ""))) - set(PASS_NAMES)
    )
    return [name for name in PASS_NAMES if name in requested], unknown


def run_check(passes: list[str] | None = None) -> CheckReport:
    """Run the named passes (default: all) and collect one report."""
    report = CheckReport()
    for name in passes if passes is not None else list(PASS_NAMES):
        report.passes.append(_RUNNERS[name]())
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Static verification: coherence-protocol model "
                    "checking, GSPN structural analysis, "
                    "simulation-discipline lints, whole-program "
                    "dependency/seed-flow analysis, and "
                    "units-and-dimensions flow analysis.",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="NAMES",
        help=f"comma-separated subset of passes ({', '.join(PASS_NAMES)})",
    )
    parser.add_argument(
        "--skip",
        default=None,
        metavar="NAMES",
        help="comma-separated passes to exclude",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    args = parser.parse_args(argv)

    selected, unknown = select_passes(args.only, args.skip)
    if unknown:
        print(f"unknown pass(es): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(PASS_NAMES)}", file=sys.stderr)
        return 2
    if not selected:
        print("selection is empty (check --only/--skip)", file=sys.stderr)
        return 2

    report = run_check(selected)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
