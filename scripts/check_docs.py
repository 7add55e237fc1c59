#!/usr/bin/env python
"""Fail when a generated document drifts from its checked-in artifacts.

Two documents are mechanical projections of checked-in JSON and must
never be edited by hand:

- ``EXPERIMENTS.md`` <- ``artifacts/experiments.json``
- ``SWEEPS.md``      <- ``artifacts/sweeps/*.json`` (plus a spec-digest
  cross-check: a report whose paired ``.toml`` spec was edited after the
  sweep ran is also a failure)

One check (:func:`repro.analysis.docs.check_drift`) regenerates both in
memory and diffs them against the checked-in documents.  Run directly::

    python scripts/check_docs.py

or via the tier-1 suite (``tests/analysis/test_docs.py`` and
``tests/sweep/test_report.py`` wrap the same check).  To fix a reported
drift, rerun the experiments and sweeps (served from the cache where
nothing changed) and rewrite both documents and their artifacts::

    python -m repro docs --jobs 4
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))


def main() -> int:
    from repro.analysis.docs import check_drift

    drift = check_drift(REPO_ROOT)
    if not drift:
        print("EXPERIMENTS.md and SWEEPS.md are in sync with "
              "artifacts/experiments.json and artifacts/sweeps/")
        return 0
    print("generated documents have drifted from their artifacts:")
    print("\n".join(drift[:120]))
    if len(drift) > 120:
        print(f"... ({len(drift) - 120} more diff lines)")
    print("\nregenerate with: python -m repro docs")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
