"""Figure 2: SS-5 vs SS-10/61 latency as a function of array size."""

from conftest import run_registered


def test_bench_figure2():
    experiment = run_registered("figure2")
    print()
    print(experiment.render())
    big = experiment.sizes.index(8 * 1024 * 1024)
    mid = experiment.sizes.index(512 * 1024)
    assert experiment.curves["SS-5"][big] < experiment.curves["SS-10/61"][big]
    assert experiment.curves["SS-10/61"][mid] < experiment.curves["SS-5"][mid]
