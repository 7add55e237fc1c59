import pytest

from repro.common.errors import SimulationError
from repro.mp.engine import MPEngine
from repro.mp.layout import NODE_REGION_BYTES
from repro.mp.ops import Barrier, Compute, Lock, Read, Unlock, Write
from repro.mp.system import MPSystem, SystemKind


def _engine(n=2, kind=SystemKind.INTEGRATED, **kw):
    return MPEngine(MPSystem(n, kind), **kw)


class TestBasicExecution:
    def test_compute_only(self):
        def kernel(pid, n):
            yield Compute(100)

        result = _engine(2).run(kernel)
        assert result.finish_times == [100, 100]
        assert result.execution_time == 100

    def test_memory_ops_advance_time(self):
        def kernel(pid, n):
            yield Read(pid * NODE_REGION_BYTES)  # local cold: 6 cycles

        result = _engine(2).run(kernel)
        assert result.finish_times == [6, 6]

    def test_deterministic(self):
        def kernel(pid, n):
            for i in range(50):
                yield Read((pid * 37 + i) * 64)
                yield Compute(pid + 1)

        a = _engine(4).run(kernel)
        b = _engine(4).run(kernel)
        assert a.finish_times == b.finish_times

    def test_op_budget(self):
        def kernel(pid, n):
            while True:
                yield Compute(1)

        with pytest.raises(SimulationError):
            _engine(1, max_ops=100).run(kernel)


class TestBarriers:
    def test_barrier_synchronizes(self):
        def kernel(pid, n):
            yield Compute(100 if pid == 0 else 10)
            yield Barrier(0)
            yield Compute(1)

        result = _engine(2, barrier_overhead=5).run(kernel)
        # Both resume at max(100, 10) + 5, then one more cycle.
        assert result.finish_times == [106, 106]

    def test_barrier_wait_accounting(self):
        def kernel(pid, n):
            yield Compute(100 if pid == 0 else 0)
            yield Barrier(0)

        result = _engine(2, barrier_overhead=0).run(kernel)
        assert result.barrier_wait_cycles[1] == 100
        assert result.barrier_wait_cycles[0] == 0

    def test_barrier_reuse_across_iterations(self):
        def kernel(pid, n):
            for step in range(3):
                yield Compute(pid + 1)
                yield Barrier(7)

        result = _engine(2).run(kernel)
        assert result.finish_times[0] == result.finish_times[1]


class TestLocks:
    def test_mutual_exclusion_serializes(self):
        def kernel(pid, n):
            yield Lock(0)
            yield Compute(50)
            yield Unlock(0)

        result = _engine(2, lock_transfer_cycles=10).run(kernel)
        # The second holder starts only after the first releases.
        assert max(result.finish_times) > 100

    def test_lock_wait_accounting(self):
        def kernel(pid, n):
            yield Lock(0)
            yield Compute(100)
            yield Unlock(0)

        result = _engine(2).run(kernel)
        assert sum(result.lock_wait_cycles) > 0

    def test_unlock_without_hold_raises(self):
        def kernel(pid, n):
            yield Unlock(0)

        with pytest.raises(SimulationError):
            _engine(1).run(kernel)

    def test_fifo_handoff(self):
        order = []

        def kernel(pid, n):
            yield Compute(pid)  # staggered arrival: 0, 1, 2
            yield Lock(0)
            order.append(pid)
            yield Compute(5)
            yield Unlock(0)

        _engine(3).run(kernel)
        assert order == [0, 1, 2]


class TestDeadlockDetection:
    def test_unreleased_lock_deadlocks(self):
        def kernel(pid, n):
            yield Lock(0)
            # proc 0 never unlocks; proc 1 waits forever.

        with pytest.raises(SimulationError):
            _engine(2).run(kernel)

    def test_mismatched_barrier_deadlocks(self):
        def kernel(pid, n):
            if pid == 0:
                yield Barrier(0)
            else:
                yield Compute(1)

        with pytest.raises(SimulationError):
            _engine(2).run(kernel)


class TestOpRecords:
    def test_records_compare_by_class_and_field(self):
        """Ops are records, not tuples: equal fields in different op
        classes are different ops."""
        assert Read(5) == Read(5)
        assert Read(5) != Write(5)
        assert Lock(1) != Unlock(1)
        assert Compute(3) != Read(3)
        assert repr(Write(0x40)) == "Write(addr=64)"
        assert repr(Barrier(2)) == "Barrier(barrier_id=2)"
