"""Table 3: Spec'95 CPI estimates (cpu + memory), no victim cache."""

from conftest import run_registered

from repro.analysis import PAPER_TABLE3


def test_bench_table3():
    experiment = run_registered("table3")
    print()
    print(experiment.render())
    # The cpu components come from the functional-unit model and must
    # track the paper's MicroSparc-II figures closely.
    for name, cpu, mem, _ in experiment.rows:
        paper = PAPER_TABLE3[name]
        assert abs(cpu - paper.cpu_cpi) < 0.08, (name, cpu, paper.cpu_cpi)
        assert mem < 1.6, name
    # swim carries the largest memory component, as in the paper.
    worst = max(experiment.rows, key=lambda row: row[2])
    assert worst[0] == "102.swim"
