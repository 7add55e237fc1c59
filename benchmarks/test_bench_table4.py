"""Table 4: Spec'95 CPI and Spec-ratio estimates with the victim cache."""

from conftest import run_registered

from repro.analysis import PAPER_TABLE4


def test_bench_table4():
    experiment = run_registered("table4")
    print()
    print(experiment.render())
    within_25_percent = 0
    for name, cpu, mem, ratio in experiment.rows:
        paper = PAPER_TABLE4[name]
        if abs((cpu + mem) - paper.total_cpi) / paper.total_cpi < 0.25:
            within_25_percent += 1
        assert ratio is not None and ratio > 0
    # The shape criterion: the bulk of the suite lands near the paper.
    assert within_25_percent >= 12, f"only {within_25_percent}/18 within 25%"
