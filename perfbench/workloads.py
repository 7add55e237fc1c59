"""The benchmark's workloads: fixed work per pass, inputs made from a seed.

Each workload is built once per run (its set-up) and then executes
passes.  A pass is a list of :class:`Op` — one CPI point, the bank
sweep, one proxy's miss-rate row, one kernel x system run, or one
experiment through the runner — whose returned simulated statistics the
runner compares against the references.
Sizes are scaled down from the experiments' defaults so that a pass
takes a few seconds; ``tiny`` sizes exist for the smoke test.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "uniproc-cpi": {
        "full": {"trace_len": 12_000, "instructions": 2_000},
        "tiny": {"trace_len": 2_000, "instructions": 200},
    },
    "missrate": {
        "full": {"trace_len": 120_000},
        "tiny": {"trace_len": 4_000},
    },
    "splash": {
        "full": {"procs": 8, "kernels": {
            "lu": {"n": 32}, "mp3d": {"particles": 600}, "ocean": {"n": 32},
            "water": {"molecules": 24}, "pthor": {"gates": 750}}},
        "tiny": {"procs": 4, "kernels": {
            "lu": {"n": 8}, "mp3d": {"particles": 64, "steps": 2},
            "ocean": {"n": 12, "iterations": 2},
            "water": {"molecules": 8, "steps": 1},
            "pthor": {"gates": 64, "steps": 4}}},
    },
    "pipeline": {
        "full": {"only": "table1,figure2,figure7,figure8,section5.6",
                 "trace_len": 15_000},
        "tiny": {"only": "table1,figure2,figure7", "trace_len": 2_000},
    },
}

SPLASH_KERNELS = ("lu", "mp3d", "ocean", "water", "pthor")
GSPN_SHAPES = ("integrated", "conventional", "banks")
FIG11_LATENCIES = (10, 20, 30, 40, 50)
FIG11_NAMES = ("141.apsi", "126.gcc")
BANK_COUNTS = (2, 4, 8, 16)
PIPELINE_JOBS = 1  # attempts run inline under the supervisor (see Pipeline)


@dataclass
class Op:
    """One operation of a pass; ``fn`` returns its simulated statistics."""

    name: str
    fn: Callable[[], Any]
    part: str = ""  # benchmark span tag (the GSPN net shape on uniproc-cpi)


@dataclass
class PassTimes:
    """How a pass's op timings map onto the end-to-end metrics."""

    wall_s: float  # the timed work of the pass
    work: float  # units of work done (instructions, refs, ops, shards)
    work_s: float  # host seconds that work took


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    work_dir: Path
    params: dict[str, Any] = field(default_factory=dict)
    seeded: ClassVar[bool] = True  # False: outputs do not depend on the seed

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def times(self, op_s: dict[str, float], tallies: dict[str, int]) -> PassTimes:
        wall = sum(op_s.values())
        return PassTimes(wall, self.work(tallies), wall)

    def work(self, tallies: dict[str, int]) -> float:
        raise NotImplementedError

    def summary(self, outputs: dict[str, Any]) -> dict[str, float]:
        """Simulated figures derived from one pass's outputs (checked)."""
        return {}

    def inconsistent(self, outputs: dict[str, Any]) -> list[str]:
        """Ops whose outputs disagree with each other within the pass."""
        return []

    def warm_s(self, op_s: dict[str, float]) -> float:
        """Seconds of the pass served from a warm cache (pipeline only)."""
        return 0.0

    def extra_figures(self, figures: dict[str, float]) -> dict[str, float]:
        """Per-layer figures of a traced pass that spans do not give."""
        return {}

    def close(self) -> None:
        pass


class UniprocCPI(Workload):
    """Section 5.5/5.6 CPI pipeline: Table 4, Figure 11, bank sweep."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.analysis import experiments
        from repro.paperdata import PAPER_TABLE4
        from repro.uniproc import pipeline
        from repro.workloads.spec import get_proxy

        self.experiments, self.pipeline = experiments, pipeline

        self.table4 = {name: get_proxy(name) for name in PAPER_TABLE4}
        self.fig11 = {name: get_proxy(name) for name in FIG11_NAMES}
        self.paper = {name: row.total_cpi for name, row in PAPER_TABLE4.items()}

    def ops(self) -> list[Op]:
        experiments, pipeline = self.experiments, self.pipeline
        p, seed = self.params, self.seed
        ops = []
        for name, proxy in self.table4.items():
            ops.append(Op(f"integrated/{name}", lambda proxy=proxy: _cpi(
                pipeline.integrated_cpi(
                    proxy, trace_len=p["trace_len"],
                    instructions=p["instructions"], seed=seed)),
                part="integrated"))
        for name, proxy in self.fig11.items():
            for lat in FIG11_LATENCIES:
                ops.append(Op(f"conventional/{name}@{lat}",
                              lambda proxy=proxy, lat=lat: _cpi(
                                  pipeline.conventional_cpi(
                                      proxy, mem_latency=lat,
                                      trace_len=p["trace_len"],
                                      instructions=p["instructions"],
                                      seed=seed)),
                              part="conventional"))
        ops.append(Op("banks", lambda: _banks(experiments.section56(
            bank_counts=BANK_COUNTS, trace_len=p["trace_len"],
            instructions=p["instructions"], seed=seed)), part="banks"))
        return ops

    def work(self, tallies: dict[str, int]) -> float:
        # Every point runs the processor net to `instructions` issues.
        points = len(self.table4) + len(self.fig11) * len(FIG11_LATENCIES) \
            + len(BANK_COUNTS)
        return float(points * self.params["instructions"])

    def summary(self, outputs: dict[str, Any]) -> dict[str, float]:
        errors = [
            abs(outputs[f"integrated/{name}"]["total_cpi"] - paper)
            for name, paper in self.paper.items()
            if outputs.get(f"integrated/{name}") is not None
        ]
        return {"cpi_mae": sum(errors) / len(errors) if errors else 0.0}


def _cpi(estimate) -> dict[str, float]:
    return {"cpu_cpi": estimate.cpu_cpi, "memory_cpi": estimate.memory_cpi,
            "total_cpi": estimate.total_cpi}


def _banks(result) -> dict[str, dict[str, float]]:
    return {str(banks): {"cpi": result.cpi[banks],
                         "utilization": result.utilization[banks]}
            for banks in result.bank_counts}


class MissRate(Workload):
    """Figures 7 and 8 over all 19 proxies."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.analysis import experiments
        from repro.workloads.spec import ALL_NAMES

        self.experiments = experiments
        self.names = tuple(ALL_NAMES)

    def ops(self) -> list[Op]:
        ops = []
        for figure in (self.experiments.figure7, self.experiments.figure8):
            for name in self.names:
                ops.append(Op(
                    f"{figure.__name__}/{name}",
                    lambda figure=figure, name=name: figure(
                        trace_len=self.params["trace_len"], seed=self.seed,
                        names=(name,)).rows[name]))
        return ops

    def work(self, tallies: dict[str, int]) -> float:
        return float(tallies.get("cache_refs", 0))


class Splash(Workload):
    """Five SPLASH kernels on all four system kinds."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.mp.system import SystemKind
        from repro.workloads.splash import KERNELS

        self.kinds = tuple(SystemKind)
        self.kernels = {name: KERNELS[name] for name in SPLASH_KERNELS}

    def ops(self) -> list[Op]:
        ops = []
        for name, cls in self.kernels.items():
            kwargs = {**self.params["kernels"][name], "seed": self.seed}
            for kind in self.kinds:
                ops.append(Op(f"{name}/{kind.value}",
                              lambda cls=cls, kwargs=kwargs, kind=kind: _mp(
                                  cls(**kwargs).run_on(
                                      kind, self.params["procs"]))))
        return ops

    def work(self, tallies: dict[str, int]) -> float:
        return float(tallies.get("mp_ops", 0))


def _mp(outcome) -> dict[str, Any]:
    result, system = outcome
    stats = system.stats
    return {
        "execution_time": result.execution_time,
        "finish_times": list(result.finish_times),
        "ops": result.total_ops,
        "lock_wait": sum(result.lock_wait_cycles),
        "barrier_wait": sum(result.barrier_wait_cycles),
        "reads": stats.reads, "writes": stats.writes,
        "local": stats.local, "remote": stats.remote,
        "upgrades": stats.upgrades, "recalls": stats.recalls,
        "by_level": {level.name: count
                     for level, count in sorted(stats.by_level.items(),
                                                key=lambda kv: kv[0].name)},
    }


class Pipeline(Workload):
    """The runner and result cache behind ``repro all --only ...``.

    One pass runs each experiment through ``run_experiments`` into an
    emptied cache directory (cold: every shard computed under supervision
    and stored), then again with a fresh ``ResultCache`` and cleared
    fingerprint memos, which is what a new CLI process starts from (warm:
    every shard a cache hit, every slice fingerprint rebuilt).  Each
    experiment of each phase is one op; its output is the digest of the
    rendered tables, the text the CLI prints.

    Runs are in-process with ``jobs=1``, so attempts run inline under the
    supervisor.  Timed as ``python -m repro`` subprocesses with
    ``--jobs 2``, the same pass varied by 12% (cold) and 30% (warm) from
    run to run on a shared 2-vCPU host, and no calibration taken in this
    process tracked the child processes.  The experiments pin their own
    seeds, so outputs do not depend on the benchmark seed.
    """

    seeded = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.analysis import SPECS, run_experiments
        from repro.analysis.docs import render_result
        from repro.runner import ResultCache, fingerprint

        self.specs, self.run_experiments = SPECS, run_experiments
        self.render_result, self.new_cache = render_result, ResultCache
        self.fingerprint = fingerprint
        self.names = self.params["only"].split(",")
        self.cache_dir = self.work_dir / "cache"
        self.cache = None
        self.metrics: dict[str, Any] = {}  # RunMetrics per op
        self.cache_bytes = 0
        self._wipe()

    def _wipe(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)

    def _run(self, op: str, name: str, fresh: bool) -> dict[str, Any]:
        if fresh:  # what a new CLI process starts from
            self.fingerprint.invalidate()
            self.cache = self.new_cache(self.cache_dir)
        overrides = {}
        if "trace_len" in self.specs[name].accepts:
            overrides[name] = {"trace_len": self.params["trace_len"]}
        results, metrics = self.run_experiments(
            [name], overrides, jobs=PIPELINE_JOBS, cache=self.cache)
        self.metrics[op] = metrics
        text = self.render_result(results[name]) + "\n"
        return {
            "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "tasks": len(metrics.tasks),
            "hits": metrics.hits,
            "misses": metrics.misses,
            "quarantined": metrics.quarantined,
        }

    def ops(self) -> list[Op]:
        self._wipe()  # every pass starts cold (outside the timed ops)
        return [
            Op(f"{phase}/{name}", lambda op=f"{phase}/{name}", name=name,
               fresh=(i == 0): self._run(op, name, fresh))
            for phase in ("cold", "warm")
            for i, name in enumerate(self.names)
        ]

    def inconsistent(self, outputs: dict[str, Any]) -> list[str]:
        # Cold and warm output must be byte-identical.
        bad = []
        for name in self.names:
            cold, warm = outputs.get(f"cold/{name}"), outputs.get(f"warm/{name}")
            if not (cold and warm
                    and cold["stdout_sha256"] == warm["stdout_sha256"]):
                bad += [f"cold/{name}", f"warm/{name}"]
        return bad

    def times(self, op_s: dict[str, float], tallies: dict[str, int]) -> PassTimes:
        # Shards served, cold and warm, per second of both phases.
        shards = sum(len(m.tasks) for m in self.metrics.values())
        cold = sum(t for op, t in op_s.items() if op.startswith("cold/"))
        return PassTimes(cold, float(shards), sum(op_s.values()))

    def warm_s(self, op_s: dict[str, float]) -> float:
        return sum(t for op, t in op_s.items() if op.startswith("warm/"))

    def extra_figures(self, figures: dict[str, float]) -> dict[str, float]:
        """Runner figures from the runs' ``RunMetrics``."""
        self.cache_bytes = sum(
            f.stat().st_size for f in self.cache_dir.rglob("*") if f.is_file())
        runs = list(self.metrics.values())
        task_s = sum(run.busy_s for run in runs)
        return {
            "runner.task_s": task_s,
            "runner.hits": sum(run.hits for run in runs),
            "runner.misses": sum(run.misses for run in runs),
            "runner.cache_bytes": self.cache_bytes,
            "runner.overhead_s": PIPELINE_JOBS * figures["runner.pool_s"]
            - task_s,
        }

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    "uniproc-cpi": UniprocCPI,
    "missrate": MissRate,
    "splash": Splash,
    "pipeline": Pipeline,
}


def build(name: str, seed: int, size: str, work_dir: Path) -> Workload:
    work_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](name, seed, size, work_dir, SIZES[name][size])
