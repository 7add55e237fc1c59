"""The repository benchmark: host time of the modeling layers, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Workloads (see perfbench/README.md):
``uniproc-cpi``, ``missrate``, ``splash``, ``pipeline``.  Each run

1. sets up the workload (imports plus input construction) and times
   that, here and in fresh ``--setup-only`` processes, reporting the
   median as ``setup_s``;
2. runs timed passes of fixed work (at least three) until the next one
   would overrun ``--seconds``, reporting medians;
3. checks every operation's simulated statistics: against the committed
   reference ``perfbench/reference/<workload>-<size>.json`` at the
   default seed (a full-size run without it exits 2), and against the
   first pass at any other seed;
4. prints a host descriptor line, then the result as the last line.

With ``--trace 1`` half the time runs untraced and half with the span
tracer of ``tracer.py`` installed; the last line then carries the
per-layer metrics, including the tracing overhead.  ``--update-reference``
rewrites the reference file from the first pass; nothing else does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import (
    DISPATCH_TARGETS, LAYERS, Tracer, dispatch_counts, layer_metrics,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

PER_LAYER = {
    "trace.gen_s": "s", "trace.refs": "count", "trace.refs_per_s": "1/s",
    "caches.fast_s": "s", "caches.exact_s": "s", "caches.refs": "count",
    "caches.refs_per_s": "1/s", "caches.fast_frac": "fraction",
    "uniproc.measure_s": "s", "uniproc.points": "count",
    "gspn.build_s": "s", "gspn.run_s": "s", "gspn.firings": "count",
    "gspn.events": "count", "gspn.instructions": "count",
    "gspn.us_per_firing": "us",
    "gspn.run_s.integrated": "s", "gspn.run_s.conventional": "s",
    "gspn.run_s.banks": "s",
    "mp.run_s": "s", "mp.access_s": "s", "mp.ops": "count",
    "mp.accesses": "count", "mp.ns_per_op": "ns", "mp.remote_frac": "fraction",
    "mp.upgrades": "count", "mp.recalls": "count",
    "mp.run_s.lu": "s", "mp.run_s.mp3d": "s", "mp.run_s.ocean": "s",
    "mp.run_s.water": "s", "mp.run_s.pthor": "s",
    "runner.fingerprint_s": "s", "runner.callgraph_builds": "count",
    "runner.cache_load_s": "s", "runner.cache_store_s": "s",
    "runner.cache_bytes": "bytes", "runner.pool_s": "s", "runner.task_s": "s",
    "runner.hits": "count", "runner.misses": "count", "runner.overhead_s": "s",
    **{f"{layer}.{kind}": unit
       for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("share", "fraction"))},
    "sim_instr_per_s": "1/s", "cache_refs_per_s": "1/s", "mp_ops_per_s": "1/s",
    "warm_wall_s": "s", "cpi_mae": "cpi", "failed_frac": "fraction",
    "tracing.overhead_s": "s",
}

# Host speed drifts by +-15% over seconds on a shared machine, and CPU
# time drifts with it.  A fixed pure-Python chunk timed before and after
# every op measures that drift; each op's time is scaled to a host where
# the chunk takes CAL_REF_S ("reference seconds").
CAL_LOOPS = 70_000
CAL_REF_S = 0.010


def calibrate() -> float:
    """Seconds the fixed calibration chunk takes right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(CAL_LOOPS):
        acc = (acc + i * 7) % 1009
        table[acc] = table.get(acc, 0) + 1
    return time.perf_counter() - start


# The workload whose work_per_s each named throughput is.
THROUGHPUT = {"sim_instr_per_s": "uniproc-cpi", "cache_refs_per_s": "missrate",
              "mp_ops_per_s": "splash"}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


class Runner:
    """Runs and checks passes of one workload."""

    def __init__(self, workload, tally, reference: dict | None) -> None:
        self.workload = workload
        self.tally = tally
        self.expected = reference["outputs"] if reference else None
        self.expected_summary = reference["summary"] if reference else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, tracer=None) -> dict:
        ops = self.workload.ops()
        outputs, op_s, ref_s = {}, {}, {}
        before = self.tally.snapshot()
        cpu = 0.0
        root = tracer.open("bench.pass") if tracer else None
        started = time.perf_counter()
        cal = calibrate()
        for op in ops:
            part = tracer.open("bench.part", {"part": op.part}) \
                if tracer and op.part else None
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                outputs[op.name] = op.fn()
            except Exception as exc:  # a failing op is counted, not fatal
                outputs[op.name] = None
                self.errors.append(f"{op.name}: {exc!r}")
            op_s[op.name] = time.perf_counter() - t0
            cpu += _cpu_s() - cpu0
            if part is not None:
                tracer.close(part)
            after = calibrate()
            ref_s[op.name] = op_s[op.name] * 2 * CAL_REF_S / (cal + after)
            cal = after
        wall = time.perf_counter() - started
        if root is not None:
            tracer.close(root)
        speed = sum(ref_s.values()) / sum(op_s.values())
        summary = self.workload.summary(outputs)
        self._check(outputs, summary)
        return {"outputs": outputs, "summary": summary, "op_s": op_s,
                "ref_s": ref_s, "tallies": self.tally.since(before),
                "pass_wall_s": wall, "ops_wall_s": sum(op_s.values()),
                "ref_wall_s": sum(ref_s.values()), "speed": speed,
                "cpu_s": cpu * speed}

    def _check(self, outputs: dict, summary: dict) -> None:
        if self.expected is None:  # the first pass becomes the expectation
            self.expected = {k: v for k, v in outputs.items() if v is not None}
            self.expected_summary = summary
        self.attempted += len(outputs)
        bad = {name for name, value in outputs.items() if value is None}
        for name, value in outputs.items():
            if value is not None and _canon(value) != _canon(self.expected.get(name)):
                bad.add(name)
                self.errors.append(f"{name}: output differs from the reference")
        for name in self.workload.inconsistent(outputs):
            bad.add(name)
            self.errors.append(f"{name}: disagrees with the other ops of its pass")
        if _canon(summary) != _canon(self.expected_summary):
            self.errors.append(f"summary {summary} != {self.expected_summary}")
            bad |= set(outputs)  # a summary drift taints the whole pass
        self.failed += len(bad)


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def _end_to_end(workload, passes: list[dict]) -> dict[str, float]:
    """Pass figures from each op's median time over the passes.

    A slow spell of the host hits a few consecutive ops of one pass; the
    per-op median drops it where a median of pass totals would not.
    """
    op_s = {name: statistics.median(p["ref_s"][name] for p in passes)
            for name in passes[0]["ref_s"]}
    times = workload.times(op_s, passes[0]["tallies"])
    return {"wall_s": times.wall_s, "cpu_s": _median(passes, "cpu_s"),
            "work_per_s": times.work / times.work_s if times.work_s else 0.0,
            "op_s": op_s}


def _measure(runner: Runner, budget_s: float, minimum: int, tracer=None,
             on_pass=None) -> list[dict]:
    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        record = runner.run_pass(tracer)
        if on_pass is not None:
            on_pass(record)
        passes.append(record)
        elapsed = time.perf_counter() - started
        if len(passes) >= minimum and \
                elapsed + _median(passes, "pass_wall_s") > budget_s:
            return passes


def _setup_sample(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])["setup_s"]


def _describe_host(code_fingerprint) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, check=False)
        commit = proc.stdout.decode().strip() or "none"
    import numpy
    import platform

    return {
        "cpu_model": cpu or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_fingerprint": code_fingerprint()[:16],
    }


def _reference_path(args) -> Path:
    return REFERENCE_DIR / f"{args.workload}-{args.size}.json"


class ReferenceMissing(Exception):
    """The reference a run must match is missing or does not apply."""


def _load_reference(args, workload) -> dict | None:
    """The reference this run's passes must equal, or None when they are
    checked against the first pass instead: at a seed other than the
    default, at a size without a committed reference, or while
    ``--update-reference`` rewrites it.  A full-size run at the reference
    seed must have its reference."""
    path = _reference_path(args)
    pinned = not workload.seeded or args.seed == DEFAULT_SEED
    if args.update_reference or not pinned:
        return None
    if not path.exists():
        if args.size == "full":
            raise ReferenceMissing(f"missing reference {path}")
        return None
    ref = json.loads(path.read_text())
    if ref["size"] != args.size or (workload.seeded
                                    and ref["seed"] != args.seed):
        raise ReferenceMissing(
            f"{path} is for size {ref['size']} seed {ref['seed']}, not "
            f"size {args.size} seed {args.seed}")
    return ref


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("uniproc-cpi", "missrate", "splash", "pipeline"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite this size's reference from the run's "
                             "first pass (default seed only)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work_dir = WORK_DIR / (args.workload + ("-setup" if args.setup_only else ""))
    workload = workloads.build(args.workload, args.seed, args.size, work_dir)
    setup_s = time.perf_counter() - started
    setup_s *= CAL_REF_S / statistics.median(calibrate() for _ in range(3))
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        return _run(args, workload, setup_s)
    finally:
        workload.close()


def _run(args, workload, setup_s: float) -> int:
    from repro.common import tally
    from repro.runner import code_fingerprint

    if args.update_reference and workload.seeded and args.seed != DEFAULT_SEED:
        print(f"references are kept for seed {DEFAULT_SEED} only",
              file=sys.stderr)
        return 2
    try:
        reference = _load_reference(args, workload)
    except ReferenceMissing as exc:
        print(f"{exc}; rewrite it with --update-reference", file=sys.stderr)
        return 2
    setups = [setup_s] + [_setup_sample(args)
                          for _ in range(SETUP_SAMPLES - 1)]
    host = _describe_host(code_fingerprint)
    runner = Runner(workload, tally, reference)

    # Untraced passes count only the engine-dispatch calls (a few dozen
    # per pass) so the result says which cache engine ran.
    dispatch = Tracer()
    dispatch.install(DISPATCH_TARGETS)
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = _measure(runner, budget, MIN_PASSES)
    finally:
        dispatch.uninstall()
    fast, total = dispatch_counts(dispatch.records())
    host["cache_fast_frac"] = fast / total if total else 0.0

    if args.update_reference:
        _reference_path(args).parent.mkdir(parents=True, exist_ok=True)
        _reference_path(args).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "outputs": plain[0]["outputs"], "summary": plain[0]["summary"],
        }, indent=1, sort_keys=True) + "\n")

    if args.trace:
        metrics = _traced(args, workload, runner, plain, host)
    else:
        metrics = {**_end_to_end(workload, plain),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": _peak_rss_mb()}
    units = PER_LAYER if args.trace else END_TO_END
    for error in runner.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "passes": len(plain),
                      "pass_wall_s": [round(p["pass_wall_s"], 4) for p in plain],
                      "speed": [round(p["speed"], 4) for p in plain],
                      "checked_against": "reference" if reference
                      else "first pass"}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def _traced(args, workload, runner, plain, host) -> dict:
    """Traced passes; per-layer medians plus the untraced comparison."""
    tracer = Tracer()
    records: list[dict] = []
    layers: list[dict] = []

    def collect(record: dict) -> None:
        recs = tracer.records()
        figures = layer_metrics(
            recs, record["tallies"], record["ops_wall_s"],
            workloads.SPLASH_KERNELS, workloads.GSPN_SHAPES)
        figures.update(workload.extra_figures(figures))
        records.append(recs)
        layers.append(figures)
        tracer.reset()

    tracer.install()
    try:
        traced = _measure(runner, args.seconds / 2, MIN_TRACED_PASSES, tracer,
                          on_pass=collect)
    finally:
        tracer.uninstall()
    Tracer.dump(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                {"host": host, "passes": records})

    metrics = {name: statistics.median(f.get(name, 0.0) for f in layers)
               for name in PER_LAYER}
    plain_figures = _end_to_end(workload, plain)
    for name, owner in THROUGHPUT.items():
        metrics[name] = plain_figures["work_per_s"] \
            if args.workload == owner else 0.0
    metrics["cpi_mae"] = plain[0]["summary"].get("cpi_mae", 0.0)
    metrics["warm_wall_s"] = workload.warm_s(plain_figures["op_s"])
    metrics["failed_frac"] = runner.failed / runner.attempted
    metrics["tracing.overhead_s"] = (_median(traced, "ref_wall_s")
                                     - _median(plain, "ref_wall_s"))
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
