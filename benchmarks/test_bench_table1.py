"""Table 1: SS-5 vs SS-10/61 Spec'92 and Synopsys runtimes."""

from conftest import run_registered


def test_bench_table1():
    experiment = run_registered("table1")
    print()
    print(experiment.render())
    by_name = {name: (spec, syn) for name, spec, syn in experiment.rows}
    ss5 = by_name["SparcStation-5"]
    ss10 = by_name["SparcStation-10/61"]
    assert ss10[0] < ss5[0], "SS-10 must win the Spec'92-class workload"
    assert ss5[1] < ss10[1], "SS-5 must win the Synopsys-class workload"
