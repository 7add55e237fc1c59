"""Figure 12: integrated-device CPI vs DRAM access latency."""

from conftest import run_registered

from repro.workloads.spec import get_proxy


def test_bench_figure12():
    experiment = run_registered("figure12")
    print()
    print(experiment.render())
    six = experiment.xs.index(6)
    for name, series in experiment.curves.items():
        raw = get_proxy(name).base_cpi()
        impact = series[six] / raw - 1.0
        # Paper: "at 30ns access time the CPI impact is between 10% and
        # 25% above the raw CPI figure" — assert a generous envelope.
        assert impact < 0.35, f"{name} CPI impact {impact:.2f}"
        assert series[-1] > series[0]
