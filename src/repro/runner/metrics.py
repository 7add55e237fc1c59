"""Run metrics: where the time went, and what the cache did.

Every task (an experiment, or one shard of a sharded experiment) gets a
:class:`TaskMetrics` record — wall time, cache hit/miss, the worker that
ran it, and the event tallies the simulators reported while it ran
(GSPN firings, MP ops).  A computed task's record is read off its
``task/<label>`` span; a cache hit's wall time and worker are read off
its ``cache/hit/<label>`` span, and its tallies come from the entry.
:class:`RunMetrics` aggregates them, with the per-stage rollup of the
run's spans, into the JSON artifact behind ``--metrics-out`` and the
summary table printed after a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# v2: per-task "status"/"attempts"/"failure" fields and a run-level count
# of failed tasks (fault-tolerant supervised executor).
# v3: run-level "stages" — per-span-name timing/counter rollups from the
# observability layer (populated when tracing is enabled, else {}).
# v4: per-task "fingerprint_kind" — which code fingerprint keyed the
# task's cache entry: "slice" (per-entry-point dependency slice) or
# "tree" (whole-package hash); "" when the run had no cache.
# v5: per-task "attempts" dropped — every task gets exactly one attempt.
# v6: per-task "status"/"failure" and the run-level failed-task count
# dropped — a failed task fails the run, so every recorded task finished.
# v7: run-level "stages" filled on every run, not only when tracing; a
# computed task's wall_s/worker/tallies are read off its task span.
METRICS_SCHEMA_VERSION = 7


@dataclass
class TaskMetrics:
    experiment: str
    shard: str
    cache: str  # "hit" | "miss" | "off"
    wall_s: float
    worker: int  # pid of the executing process (parent pid for hits)
    tallies: dict[str, int] = field(default_factory=dict)
    key: str = ""
    fingerprint_kind: str = ""  # "slice" | "tree" | "" (no cache)

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "shard": self.shard,
            "cache": self.cache,
            "wall_s": self.wall_s,
            "worker": self.worker,
            "tallies": dict(self.tallies),
            "key": self.key,
            "fingerprint_kind": self.fingerprint_kind,
        }


@dataclass
class RunMetrics:
    jobs: int
    fingerprint: str
    wall_s: float = 0.0
    tasks: list[TaskMetrics] = field(default_factory=list)
    # Per-stage rollup of the run's repro.obs spans (span name -> count /
    # wall_s / counters / per_sec).
    stages: dict[str, dict] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return sum(1 for t in self.tasks if t.cache == "hit")

    @property
    def misses(self) -> int:
        return sum(1 for t in self.tasks if t.cache == "miss")

    @property
    def quarantined(self) -> int:
        # perfbench's pipeline workload reads this; no task is quarantined.
        return 0

    @property
    def busy_s(self) -> float:
        """Total worker-occupied seconds (cache hits cost ~nothing)."""
        return sum(t.wall_s for t in self.tasks if t.cache != "hit")

    @property
    def utilization(self) -> float:
        """Fraction of the worker pool kept busy over the run."""
        if self.wall_s <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.jobs * self.wall_s))

    def tallies_for(self, experiment: str) -> dict[str, int]:
        combined: dict[str, int] = {}
        for task in self.tasks:
            if task.experiment == experiment:
                for name, count in task.tallies.items():
                    combined[name] = combined.get(name, 0) + count
        return combined

    def to_json(self) -> dict:
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "jobs": self.jobs,
            "fingerprint": self.fingerprint,
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "stages": {name: dict(stage) for name, stage in self.stages.items()},
            "tasks": [t.to_json() for t in self.tasks],
        }

    def write(self, path: Path | str) -> None:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True)
                        + "\n")

    def render(self) -> str:
        """Per-experiment summary table plus a run footer line."""
        from repro.analysis.render import ascii_table

        by_exp: dict[str, list[TaskMetrics]] = {}
        for task in self.tasks:
            by_exp.setdefault(task.experiment, []).append(task)
        rows = []
        for name, tasks in by_exp.items():
            tallies = self.tallies_for(name)
            events = sum(tallies.values())
            rows.append([
                name,
                len(tasks),
                sum(1 for t in tasks if t.cache == "hit"),
                f"{sum(t.wall_s for t in tasks):.2f}",
                f"{events:,}" if events else "-",
            ])
        table = ascii_table(
            ["experiment", "tasks", "cache hits", "task seconds", "sim events"],
            rows,
        )
        footer = (
            f"jobs={self.jobs}  wall={self.wall_s:.2f}s  "
            f"busy={self.busy_s:.2f}s  utilization={self.utilization:.0%}  "
            f"cache {self.hits} hit / {self.misses} miss"
        )
        return f"{table}\n{footer}"
