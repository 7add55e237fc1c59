"""Section 5.6: impact of the number of DRAM banks."""

from conftest import run_registered


def test_bench_section56():
    experiment = run_registered("section5.6")
    print()
    print(experiment.render())
    # "In all cases, the performance differences were below the error
    # limits of the simulation."
    cpis = list(experiment.cpi.values())
    assert max(cpis) / min(cpis) < 1.12
    # "each of the 16 banks are busy only 1.2% of the time, and increases
    # to only 9.6% with 2 banks" — the utilization scales ~linearly.
    assert experiment.utilization[2] > 3 * experiment.utilization[16]
    assert experiment.utilization[16] < 0.05
