"""Figure 7: instruction-cache miss rates, proposed vs conventional."""

from conftest import run_registered


def test_bench_figure7():
    experiment = run_registered("figure7")
    print()
    print(experiment.render())
    # Headline checks: long lines win almost everywhere, turb3d excepted.
    losses = [
        name
        for name in experiment.benchmarks
        if experiment.rows[name][0] > experiment.rows[name][1]
    ]
    assert losses == ["125.turb3d"], losses
    fpppp = experiment.rows["145.fpppp"]
    assert fpppp[1] / max(fpppp[0], 1e-9) > 6.0, "fpppp long-line factor"
