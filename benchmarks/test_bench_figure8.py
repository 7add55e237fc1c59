"""Figure 8: data-cache miss rates with and without the victim cache."""

from conftest import run_registered


def test_bench_figure8():
    experiment = run_registered("figure8")
    print()
    print(experiment.render())
    # Colliding-stream benchmarks punish plain long lines...
    for name in ("101.tomcatv", "102.swim", "103.su2cor"):
        plain, victim, dm16 = (
            experiment.rows[name][0],
            experiment.rows[name][1],
            experiment.rows[name][3],
        )
        assert plain > 2 * dm16, name
        assert victim < plain / 3, name
    # ...while stencil streamers reward them.
    mgrid = experiment.rows["107.mgrid"]
    assert mgrid[3] / max(mgrid[0], 1e-9) > 8.0
    # Victim beats the 16 KB direct-mapped cache nearly everywhere.
    losses = [
        name
        for name in experiment.benchmarks
        if experiment.rows[name][1] > experiment.rows[name][3]
    ]
    assert len(losses) <= 2, losses
