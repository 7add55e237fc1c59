"""Benchmark harness configuration.

Each ``benchmarks/test_bench_*.py`` regenerates one of the paper's
tables or figures and prints it (run with ``-s`` to see the output;
without it the rendered results still land in the captured stdout).
``REPRO_SCALE`` (default 1.0) multiplies trace lengths / instruction
budgets for tighter estimates at the cost of runtime.

The harness shares the CLI's result cache (``.repro-cache/``, keyed by
experiment + parameters + code fingerprint), so a tier-2 sweep that
follows ``python -m repro all`` — or a previous benchmark run on
unchanged code — replays results instead of recomputing them.  Set
``REPRO_BENCH_CACHE=0`` to force recomputation (e.g. when timing the
simulators themselves rather than checking their output).
"""

import os

import pytest

from repro.runner import ResultCache, cached_call


def scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1000) -> int:
    return max(minimum, int(value * scale()))


@pytest.fixture(scope="session")
def result_cache():
    """The shared experiment-result cache (None when disabled)."""
    if os.environ.get("REPRO_BENCH_CACHE", "1") == "0":
        return None
    return ResultCache()


@pytest.fixture
def once(benchmark, result_cache):
    """Run the experiment exactly once and report its wall time.

    Results come from the shared cache when an identical computation
    (same function, same kwargs, same code) has already run.
    """

    def runner(fn, *args, **kwargs):
        # Only package-level experiment functions are safely keyable by
        # (qualname, arguments); test-local closures capture state the
        # key cannot see, so they always recompute.
        cacheable = result_cache is not None and (
            fn.__module__ or ""
        ).startswith("repro.") and "<locals>" not in fn.__qualname__
        if not cacheable:
            return benchmark.pedantic(
                fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
            )
        return benchmark.pedantic(
            cached_call, args=(fn, kwargs, result_cache, args),
            rounds=1, iterations=1,
        )

    return runner
