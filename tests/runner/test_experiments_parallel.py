"""End-to-end: registry sharding reproduces direct experiment calls.

Small trace lengths keep this fast; the properties checked are exactly
the CLI's guarantees — ``--jobs N`` output is byte-identical to
``--jobs 1`` and to calling the experiment function directly, and a
second run is served entirely from the cache.
"""

import pytest

from repro.analysis import SPECS, run_experiments, splash_figure
from repro.analysis.docs import render_result
from repro.runner import ResultCache
from repro.workloads.splash import KERNELS

SMALL = {
    "figure7": {"trace_len": 2_000},
    "figure11": {"trace_len": 2_000, "instructions": 300},
    "table3": {"trace_len": 2_000, "instructions": 300,
               "names": ("126.gcc", "102.swim")},
    "crossover": {"trace_len": 2_000, "instructions": 300},
    "section5.6": {"trace_len": 4_000, "instructions": 400},
    "figures13-17": {"proc_counts": (1, 2)},
}


class TestShardingEquality:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_sharded_matches_direct(self, name):
        if name == "figures13-17":
            direct = [splash_figure(kernel, **SMALL[name])
                      for kernel in KERNELS]
        else:
            direct = SPECS[name].fn(**SMALL[name])
        results, metrics = run_experiments(
            [name], {name: SMALL[name]}, jobs=1, cache=None
        )
        assert render_result(results[name]) == render_result(direct)
        if SPECS[name].shard_param is not None:
            assert len(metrics.tasks) > 1  # actually fanned out

    def test_parallel_matches_serial(self):
        names = ["figure7", "section5.6"]
        overrides = {n: SMALL[n] for n in names}
        serial, _ = run_experiments(names, overrides, jobs=1)
        parallel, _ = run_experiments(names, overrides, jobs=2)
        for name in names:
            assert render_result(parallel[name]) == render_result(serial[name])

    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        overrides = {"figure11": SMALL["figure11"]}
        first, m1 = run_experiments(["figure11"], overrides, jobs=1,
                                    cache=cache)
        assert m1.misses == len(m1.tasks)
        second, m2 = run_experiments(["figure11"], overrides, jobs=1,
                                     cache=cache)
        assert m2.hits == len(m2.tasks) and m2.misses == 0
        assert render_result(second["figure11"]) == render_result(
            first["figure11"]
        )


class TestRegistry:
    def test_specs_document_paper_and_modules(self):
        import importlib

        for spec in SPECS.values():
            assert spec.paper_ref and spec.summary
            for module in spec.modules:
                importlib.import_module(module)

    def test_shard_values_cover_defaults(self):
        from repro.paperdata import PAPER_TABLE3
        from repro.workloads.spec import ALL_NAMES

        assert SPECS["figure7"].shard_values == tuple(ALL_NAMES)
        assert SPECS["table3"].shard_values == tuple(PAPER_TABLE3)
        assert SPECS["figures13-17"].shard_values == (
            "lu", "mp3d", "ocean", "water", "pthor",
        )
