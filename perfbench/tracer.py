"""Span tracing of the program's public functions, installed from outside.

The benchmark never edits the program.  :class:`Tracer` replaces each
function named in :data:`TARGETS` with a wrapper that records a span —
name, start, end, parent, plus a few simulated counts read off the
call's result — and puts the original back on :meth:`Tracer.uninstall`.
Work counts the program already tallies (``repro.common.tally``) are
taken from the pass's tally delta instead.  Module-level functions are
rebound in every loaded module that imported them by name, so callers
that did
``from repro.caches.fast import column_buffer_fast`` see the wrapper too.

Spans stay in memory; :meth:`Tracer.dump` writes them when the run ends.
``MPSystem.access`` runs hundreds of thousands of times per pass, so it
is a *leaf*: its calls are rolled up into one (count, seconds) record
per parent span instead of one span each.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = ("trace", "caches", "uniproc", "gspn", "mp", "runner")

# Fast kernels: a dispatching call resolved to the fast path when one of
# these ran beneath it.
FAST_KERNELS = ("caches.column_buffer_fast", "caches.set_assoc_miss_flags")
# Calls that choose an engine (all run with the default engine="auto").
DISPATCHERS = (
    "caches.simulate_column_buffer",
    "uniproc.measure_integrated",
    "uniproc.measure_conventional",
)


def _gspn_run(args, kwargs, result) -> dict:
    # Each simulator runs once per point here, so lifetime counts are the
    # counts of this call.
    sim = args[0]
    from repro.gspn.models import ISSUE_TRANSITION
    from repro.gspn.net import TransitionKind

    timed = sum(
        count for name, count in result.firings.items()
        if sim.net.transitions[name].kind is not TransitionKind.IMMEDIATE
    )
    return {
        "events": int(timed),
        "instructions": int(result.firings.get(ISSUE_TRANSITION, 0)),
    }


def _kernel_run(args, kwargs, result) -> dict:
    stats = result[1].stats
    return {
        "kernel": args[0].name,
        "accesses": stats.reads + stats.writes,
        "remote": stats.remote,
        "upgrades": stats.upgrades,
        "recalls": stats.recalls,
    }


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "func" or "Class.method"
    span: str  # "<layer>.<what>"
    info: Callable[[tuple, dict, Any], dict] | None = None
    leaf: bool = False


TARGETS = (
    Target("repro.workloads.spec.model", "SpecProxy.instruction_trace",
           "trace.instruction_trace"),
    Target("repro.workloads.spec.model", "SpecProxy.data_trace",
           "trace.data_trace"),
    Target("repro.caches.fast", "column_buffer_fast",
           "caches.column_buffer_fast"),
    Target("repro.caches.fast", "simulate_column_buffer",
           "caches.simulate_column_buffer"),
    Target("repro.caches.fast", "set_assoc_miss_flags",
           "caches.set_assoc_miss_flags"),
    Target("repro.caches.fast", "direct_mapped_miss_rate",
           "caches.direct_mapped_miss_rate"),
    Target("repro.caches.fast", "set_assoc_miss_rate",
           "caches.set_assoc_miss_rate"),
    Target("repro.uniproc.measurement", "measure_integrated",
           "uniproc.measure_integrated"),
    Target("repro.uniproc.measurement", "measure_conventional",
           "uniproc.measure_conventional"),
    Target("repro.uniproc.pipeline", "integrated_cpi", "uniproc.integrated_cpi"),
    Target("repro.uniproc.pipeline", "conventional_cpi",
           "uniproc.conventional_cpi"),
    Target("repro.gspn.models", "build_processor_net", "gspn.build_processor_net"),
    Target("repro.gspn.sim", "GSPNSimulator.__init__", "gspn.init"),
    Target("repro.gspn.sim", "GSPNSimulator.run", "gspn.run", _gspn_run),
    Target("repro.workloads.splash.base", "SplashKernel.run_on", "mp.run_on",
           _kernel_run),
    Target("repro.mp.engine", "MPEngine.run", "mp.run"),
    Target("repro.mp.system", "MPSystem.access", "mp.access", leaf=True),
    Target("repro.runner.fingerprint", "slice_fingerprint",
           "runner.slice_fingerprint"),
    Target("repro.check.callgraph", "build_callgraph", "runner.build_callgraph"),
    Target("repro.runner.cache", "ResultCache.load", "runner.cache_load"),
    Target("repro.runner.cache", "ResultCache.store", "runner.cache_store"),
    Target("repro.runner.resilience", "supervised_map", "runner.supervised_map"),
)

# The engine-dispatch subset: a few dozen calls per pass, cheap enough to
# count in untraced runs so every result says which cache engine ran.
DISPATCH_TARGETS = tuple(
    t for t in TARGETS if t.span in FAST_KERNELS + DISPATCHERS
)


class Tracer:
    """In-memory span recorder over wrapped program functions."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, info dict or None]
        self.spans: list[list] = []
        # (name, parent index) -> [calls, seconds] for leaf targets
        self.rollups: dict[tuple[str, int], list] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.rollups = {}
        self._stack = []

    def open(self, name: str, info: dict | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, info])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn: Callable, name: str, info) -> Callable:
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if info is not None:
                self.spans[index][4] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name, self._stack[-1] if self._stack else -1)
                record = self.rollups.get(key)
                if record is None:
                    record = self.rollups[key] = [0, 0.0]
                record[0] += 1
                record[1] += time.perf_counter() - start

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        if target.leaf:
            return self._leaf_wrapper(fn, target.span)
        return self._span_wrapper(fn, target.span, target.info)

    def install(self, targets=TARGETS) -> None:
        """Wrap ``targets``.  Modules that import a target by name must be
        imported before this, or they keep the unwrapped function."""
        modules = {t.module: importlib.import_module(t.module) for t in TARGETS}
        for target in targets:
            module = modules[target.module]
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._wrap(target, owner.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(target, original)
            # Rebind every by-name import of the function as well.
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ------------------------------------------------------------

    def records(self) -> dict:
        return {
            "spans": self.spans,
            "rollups": [[name, parent, calls, seconds]
                        for (name, parent), (calls, seconds)
                        in self.rollups.items()],
        }

    @staticmethod
    def dump(path, payload: dict) -> None:
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# Analysis of one pass's records
# ---------------------------------------------------------------------------


def _dur(span: list) -> float:
    return span[2] - span[1]


def _ancestor(spans: list[list], index: int, name: str) -> list | None:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return spans[parent]
        parent = spans[parent][3]
    return None


def self_times(records: dict) -> dict[str, float]:
    """Seconds each layer spent outside its child spans.

    A span's self time is its duration minus the durations of its
    direct children (spans and leaf roll-ups); spans named ``bench.*``
    are the benchmark's own and fall in the ``bench`` bucket.
    """
    spans = records["spans"]
    children = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            children[span[3]] += _dur(span)
    out: dict[str, float] = defaultdict(float)
    for _, parent, _, seconds in records["rollups"]:
        if parent >= 0:
            children[parent] += seconds
    for index, span in enumerate(spans):
        out[span[0].split(".")[0]] += _dur(span) - children[index]
    for name, _, _, seconds in records["rollups"]:
        out[name.split(".")[0]] += seconds
    return dict(out)


def dispatch_counts(records: dict) -> tuple[int, int]:
    """``(fast, total)`` over engine="auto" dispatching calls."""
    spans = records["spans"]
    fast_under: set[int] = set()
    for index, span in enumerate(spans):
        if span[0] in FAST_KERNELS:
            parent = span[3]
            while parent >= 0:
                fast_under.add(parent)
                parent = spans[parent][3]
    total = fast = 0
    for index, span in enumerate(spans):
        if span[0] in DISPATCHERS:
            total += 1
            fast += index in fast_under
    return fast, total


def layer_metrics(records: dict, tallies: dict[str, int], pass_wall: float,
                  kernels: tuple[str, ...],
                  shapes: tuple[str, ...]) -> dict[str, float]:
    """Per-layer figures of one traced pass (see perfbench/README.md).

    ``tallies`` is the pass's ``repro.common.tally`` delta, the source of
    the reference, firing and op counts.
    """
    spans = records["spans"]
    m: dict[str, float] = defaultdict(float)
    m["trace.refs"] = tallies.get("trace_refs", 0)
    m["caches.refs"] = tallies.get("cache_refs", 0)
    m["gspn.firings"] = tallies.get("gspn_firings", 0)
    m["mp.ops"] = tallies.get("mp_ops", 0)

    def top_in_layer(index: int) -> bool:
        parent = spans[index][3]
        return parent < 0 or spans[parent][0].split(".")[0] != \
            spans[index][0].split(".")[0]

    for index, span in enumerate(spans):
        name, info = span[0], span[4] or {}
        dur = _dur(span)
        layer = name.split(".")[0]
        if layer == "trace":
            m["trace.gen_s"] += dur
        elif name in ("uniproc.measure_integrated",
                      "uniproc.measure_conventional"):
            m["uniproc.measure_s"] += dur
        elif name in ("uniproc.integrated_cpi", "uniproc.conventional_cpi"):
            m["uniproc.points"] += 1
        elif name in ("gspn.build_processor_net", "gspn.init"):
            m["gspn.build_s"] += dur
        elif name == "gspn.run":
            m["gspn.run_s"] += dur
            m["gspn.events"] += info.get("events", 0)
            m["gspn.instructions"] += info.get("instructions", 0)
            part = _ancestor(spans, index, "bench.part")
            if part is not None and part[4]:
                m[f"gspn.run_s.{part[4]['part']}"] += dur
        elif name == "mp.run":
            m["mp.run_s"] += dur
            kernel = _ancestor(spans, index, "mp.run_on")
            if kernel is not None and kernel[4]:
                m[f"mp.run_s.{kernel[4]['kernel']}"] += dur
        elif name == "mp.run_on":
            for key in ("accesses", "remote", "upgrades", "recalls"):
                m[f"mp._{key}"] += info.get(key, 0)
        elif name == "runner.slice_fingerprint":
            m["runner.fingerprint_s"] += dur
        elif name == "runner.build_callgraph":
            m["runner.callgraph_builds"] += 1
        elif name == "runner.cache_load":
            m["runner.cache_load_s"] += dur
        elif name == "runner.cache_store":
            m["runner.cache_store_s"] += dur
        elif name == "runner.supervised_map":
            m["runner.pool_s"] += dur

    # Cache engine time, per outermost cache call: only a column-buffer
    # dispatch without a fast kernel beneath it ran the exact oracle.
    fast_parents = {s[3] for s in spans if s[0] in FAST_KERNELS}
    for index, span in enumerate(spans):
        if span[0].startswith("caches.") and top_in_layer(index):
            exact = span[0] == "caches.simulate_column_buffer" \
                and index not in fast_parents
            m["caches.exact_s" if exact else "caches.fast_s"] += _dur(span)
    for name, _, calls, seconds in records["rollups"]:
        if name == "mp.access":
            m["mp.accesses"] += calls
            m["mp.access_s"] += seconds

    fast, total = dispatch_counts(records)
    m["caches.fast_frac"] = fast / total if total else 0.0
    m["trace.refs_per_s"] = _rate(m["trace.refs"], m["trace.gen_s"])
    m["caches.refs_per_s"] = _rate(
        m["caches.refs"], m["caches.fast_s"] + m["caches.exact_s"])
    m["gspn.us_per_firing"] = _rate(m["gspn.run_s"] * 1e6, m["gspn.firings"])
    m["mp.ns_per_op"] = _rate(m["mp.run_s"] * 1e9, m["mp.ops"])
    accesses = m.pop("mp._accesses", 0)
    m["mp.remote_frac"] = _rate(m.pop("mp._remote", 0), accesses)
    m["mp.upgrades"] = m.pop("mp._upgrades", 0)
    m["mp.recalls"] = m.pop("mp._recalls", 0)
    for shape in shapes:
        m.setdefault(f"gspn.run_s.{shape}", 0.0)
    for kernel in kernels:
        m.setdefault(f"mp.run_s.{kernel}", 0.0)
    own = self_times(records)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
        m[f"{layer}.share"] = _rate(own.get(layer, 0.0), pass_wall)
    return dict(m)


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0
