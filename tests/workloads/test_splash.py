"""SPLASH kernel tests: architectural correctness (the kernels really
compute) and the Section 6.2 performance claims at small scale."""

import numpy as np
import pytest

from repro.mp.system import SystemKind
from repro.workloads.splash import (
    KERNELS,
    LUKernel,
    MP3DKernel,
    OceanKernel,
    PthorKernel,
    WaterKernel,
)

# Small instances keep the execution-driven runs fast in CI.
SMALL = {
    "lu": lambda: LUKernel(n=16, block=4),
    "mp3d": lambda: MP3DKernel(particles=200, steps=3),
    "ocean": lambda: OceanKernel(n=18, iterations=3),
    "water": lambda: WaterKernel(molecules=16, steps=2),
    "pthor": lambda: PthorKernel(gates=200, steps=8),
}
# Each kernel's final numeric state, bit-identical across system kinds.
KIND_INDEPENDENT_STATE = {
    "lu": ("matrix",),
    "mp3d": ("positions", "velocities"),
    "ocean": ("grid",),
    "water": ("positions",),
}


class TestRegistry:
    def test_kernel_registry(self):
        # The paper's five (Table 5), in the order of Figures 13-17.
        assert tuple(KERNELS) == ("lu", "mp3d", "ocean", "water", "pthor")


class TestComputationalCorrectness:
    """Execution-driven means the kernels do real work — verify it."""

    def test_lu_factorization_correct(self):
        kernel = SMALL["lu"]()
        kernel.run_on(SystemKind.INTEGRATED, 2)
        assert kernel.verify()

    def test_lu_correct_at_any_proc_count(self):
        for procs in (1, 4):
            kernel = SMALL["lu"]()
            kernel.run_on(SystemKind.REFERENCE, procs)
            assert kernel.verify()

    def test_mp3d_particles_stay_in_box(self):
        kernel = SMALL["mp3d"]()
        kernel.run_on(SystemKind.INTEGRATED, 2)
        assert kernel.verify()

    def test_ocean_relaxation_reduces_residual(self):
        kernel = SMALL["ocean"]()
        before = None
        kernel.run_on(SystemKind.INTEGRATED, 2)
        after = kernel.residual()
        # A few sweeps of Gauss-Seidel on random data leave residual < 0.5.
        assert after < 0.5
        del before

    def test_water_molecules_move_and_stay_finite(self):
        kernel = SMALL["water"]()
        kernel.run_on(SystemKind.INTEGRATED, 2)
        assert kernel.verify()

    def test_pthor_outputs_binary_dag(self):
        kernel = SMALL["pthor"]()
        kernel.run_on(SystemKind.INTEGRATED, 2)
        assert kernel.verify()

    def test_results_independent_of_system_kind(self):
        """The architecture model changes timing, never results: each
        kernel runs the same ops per processor and ends in the same state
        on all four kinds.  Water's velocities agree only to rounding
        (see the xfail below); pthor's race is its own xfail."""
        for name, attrs in KIND_INDEPENDENT_STATE.items():
            runs = []
            for kind in SystemKind:
                kernel = SMALL[name]()
                result, _ = kernel.run_on(kind, 4)
                runs.append((kind, result.ops_executed, kernel))
            _, ops, first = runs[0]
            for kind, got_ops, kernel in runs:
                assert got_ops == ops, (name, kind)
                for attr in attrs:
                    assert np.array_equal(getattr(kernel, attr),
                                          getattr(first, attr)), (name, kind)
            if name == "water":
                for _, _, kernel in runs:
                    assert np.allclose(kernel.velocities, first.velocities,
                                       rtol=0, atol=1e-15)

    @pytest.mark.xfail(strict=True, reason=(
        "water race (ROADMAP): processors add their partial forces into "
        "shared molecules in arrival order, so the float sums round "
        "differently per kind; at p=4 the velocities differ in the last "
        "bits on integrated-no-victim and reference"))
    def test_water_velocities_bit_identical_across_system_kinds(self):
        velocities = []
        for kind in SystemKind:
            kernel = SMALL["water"]()
            kernel.run_on(kind, 4)
            velocities.append(kernel.velocities)
        assert all(np.array_equal(v, velocities[0]) for v in velocities)

    @pytest.mark.xfail(strict=True, reason=(
        "pthor race (ROADMAP): gates read fanin outputs other processors "
        "rewrite in the same step, so at p=8 the outputs differ and scoma "
        "runs 410 ops to the other kinds' 413"))
    def test_pthor_results_independent_of_system_kind(self):
        outcomes = []
        for kind in SystemKind:
            kernel = PthorKernel(gates=64, steps=4)
            result, _ = kernel.run_on(kind, 8)
            outcomes.append((result.total_ops, kernel.outputs.tolist()))
        assert all(outcome == outcomes[0] for outcome in outcomes)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_execution_time_reproducible(self, name):
        a = SMALL[name]()
        ra, _ = a.run_on(SystemKind.INTEGRATED, 2)
        b = SMALL[name]()
        rb, _ = b.run_on(SystemKind.INTEGRATED, 2)
        assert ra.execution_time == rb.execution_time


class TestSection62Claims:
    """Timing claims from the paper, exercised at reduced scale."""

    def test_integrated_beats_reference_at_small_proc_counts(self):
        # "the integrated design outperforms the traditional CC-NUMA
        # designs for small numbers of processors in all cases".
        kernel_i = LUKernel(n=24, block=4)
        time_i, _ = kernel_i.run_on(SystemKind.INTEGRATED, 1)
        kernel_r = LUKernel(n=24, block=4)
        time_r, _ = kernel_r.run_on(SystemKind.REFERENCE, 1)
        assert time_i.execution_time < time_r.execution_time

    def test_water_punishes_plain_column_buffers(self):
        # "WATER is the only benchmark for which the reference CC-NUMA
        # shows better results than the integrated architecture unaided
        # by a victim cache."
        water_nv = WaterKernel(molecules=24, steps=2)
        t_nv, _ = water_nv.run_on(SystemKind.INTEGRATED_NO_VICTIM, 4)
        water_ref = WaterKernel(molecules=24, steps=2)
        t_ref, _ = water_ref.run_on(SystemKind.REFERENCE, 4)
        assert t_ref.execution_time < t_nv.execution_time

    def test_victim_cache_rescues_water(self):
        water_v = WaterKernel(molecules=24, steps=2)
        t_v, _ = water_v.run_on(SystemKind.INTEGRATED, 4)
        water_nv = WaterKernel(molecules=24, steps=2)
        t_nv, _ = water_nv.run_on(SystemKind.INTEGRATED_NO_VICTIM, 4)
        assert t_v.execution_time < t_nv.execution_time

    def test_parallel_speedup_lu(self):
        serial = LUKernel(n=24, block=4)
        t1, _ = serial.run_on(SystemKind.INTEGRATED, 1)
        parallel = LUKernel(n=24, block=4)
        t4, _ = parallel.run_on(SystemKind.INTEGRATED, 4)
        assert t4.execution_time < t1.execution_time
