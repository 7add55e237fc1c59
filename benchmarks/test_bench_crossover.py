"""Derived experiment: break-even conventional memory latency."""

from conftest import run_registered


def test_bench_crossover():
    experiment = run_registered("crossover")
    print()
    print(experiment.render())
    # The paper's thesis: the conventional hierarchy loses within any
    # realistic memory latency.
    for name in experiment.benchmarks:
        assert experiment.crossover[name] is not None, name
        assert experiment.crossover[name] <= 24
