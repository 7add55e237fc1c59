"""Figure 11: conventional-CPU CPI vs second-level-cache/memory latency."""

from conftest import run_registered


def test_bench_figure11():
    experiment = run_registered("figure11")
    print()
    print(experiment.render())
    for name, series in experiment.curves.items():
        assert series[-1] > series[0], f"{name} CPI must grow with latency"
    # The grey operating region: memory latency alone can cost up to a
    # factor of ~2 over raw CPI at the far end of the sweep.
    gcc = experiment.curves["126.gcc"]
    assert gcc[-1] / gcc[0] > 1.15
