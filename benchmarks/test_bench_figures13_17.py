"""Figures 13-17: SPLASH execution time vs processor count on the
integrated design (with and without victim cache) and the reference
CC-NUMA."""

import pytest
from conftest import run_registered

from repro.mp.system import SystemKind

PROCS = (1, 2, 4, 8, 16)

INTEGRATED = SystemKind.INTEGRATED.value
NO_VICTIM = SystemKind.INTEGRATED_NO_VICTIM.value
REFERENCE = SystemKind.REFERENCE.value


def _run(name):
    [experiment] = [exp for exp in run_registered("figures13-17")
                    if exp.kernel == name]
    assert tuple(experiment.proc_counts) == PROCS
    print()
    print(experiment.render())
    return experiment


def test_bench_figure13_lu():
    exp = _run("lu")
    times = exp.times
    # Integrated wins at every processor count; no-victim loses badly.
    for i in range(len(PROCS)):
        assert times[INTEGRATED][i] <= times[REFERENCE][i]
        assert times[INTEGRATED][i] < times[NO_VICTIM][i] or PROCS[i] == 1
    # And it scales: 16 processors beat 1 by a wide margin.
    assert times[INTEGRATED][-1] < times[INTEGRATED][0] / 3


def test_bench_figure14_mp3d():
    exp = _run("mp3d")
    times = exp.times
    # MP3D's shared-cell updates bound the scaling, but the integrated
    # design is never worse than the reference.
    for i in range(len(PROCS)):
        assert times[INTEGRATED][i] <= times[REFERENCE][i] * 1.02
    assert times[INTEGRATED][2] < times[INTEGRATED][0]


def test_bench_figure15_ocean():
    exp = _run("ocean")
    times = exp.times
    assert times[INTEGRATED][0] < times[REFERENCE][0]
    assert times[INTEGRATED][-1] < times[INTEGRATED][0]


def test_bench_figure16_water():
    exp = _run("water")
    times = exp.times
    # "WATER is the only benchmark for which the reference CC-NUMA design
    # shows better results than the integrated architecture unaided by a
    # victim cache" — and the victim cache recovers the loss.
    mid = PROCS.index(4)
    assert times[REFERENCE][mid] < times[NO_VICTIM][mid]
    assert times[INTEGRATED][mid] < times[NO_VICTIM][mid]


def test_bench_figure17_pthor():
    exp = _run("pthor")
    times = exp.times
    # Integrated outperforms the reference at small processor counts,
    # converging as the per-processor working set shrinks (Section 6.2).
    assert times[INTEGRATED][0] < times[REFERENCE][0]
    assert times[INTEGRATED][-1] == pytest.approx(times[REFERENCE][-1], rel=0.15)
