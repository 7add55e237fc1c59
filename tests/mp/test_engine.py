import re

import pytest

from repro.common.errors import SimulationError
from repro.mp.engine import MPEngine
from repro.mp.layout import NODE_REGION_BYTES
from repro.mp.ops import BARRIER, COMPUTE, LOCK, READ, UNLOCK, WRITE
from repro.mp.system import MPSystem, SystemKind


def _engine(n=2, kind=SystemKind.INTEGRATED, **kw):
    return MPEngine(MPSystem(n, kind), **kw)


class TestBasicExecution:
    def test_compute_only(self):
        def kernel(pid, n):
            yield COMPUTE, 100

        result = _engine(2).run(kernel)
        assert result.finish_times == [100, 100]
        assert result.execution_time == 100

    def test_memory_ops_advance_time(self):
        def kernel(pid, n):
            yield READ, pid * NODE_REGION_BYTES  # local cold: 6 cycles

        result = _engine(2).run(kernel)
        assert result.finish_times == [6, 6]

    def test_deterministic(self):
        def kernel(pid, n):
            for i in range(50):
                yield READ, (pid * 37 + i) * 64
                yield COMPUTE, pid + 1

        a = _engine(4).run(kernel)
        b = _engine(4).run(kernel)
        assert a.finish_times == b.finish_times

    def test_op_budget(self):
        def kernel(pid, n):
            yield COMPUTE, 1 if pid == 0 else 5
            while True:
                yield COMPUTE, 10

        # Ops issue at t = 0 (proc 0), 0 (proc 1), 1 (proc 0), 5 (proc 1).
        with pytest.raises(SimulationError,
                           match=r"MP op budget exceeded: max_ops=3, "
                                 r"reached at proc 1"):
            _engine(2, max_ops=3).run(kernel)


class TestBarriers:
    def test_barrier_synchronizes(self):
        def kernel(pid, n):
            yield COMPUTE, 100 if pid == 0 else 10
            yield BARRIER, 0
            yield COMPUTE, 1

        result = _engine(2, barrier_overhead=5).run(kernel)
        # Both resume at max(100, 10) + 5, then one more cycle.
        assert result.finish_times == [106, 106]

    def test_barrier_wait_accounting(self):
        def kernel(pid, n):
            yield COMPUTE, 100 if pid == 0 else 0
            yield BARRIER, 0

        result = _engine(2, barrier_overhead=0).run(kernel)
        assert result.barrier_wait_cycles[1] == 100
        assert result.barrier_wait_cycles[0] == 0

    def test_barrier_reuse_across_iterations(self):
        def kernel(pid, n):
            for step in range(3):
                yield COMPUTE, pid + 1
                yield BARRIER, 7

        result = _engine(2).run(kernel)
        assert result.finish_times[0] == result.finish_times[1]


class TestLocks:
    def test_mutual_exclusion_serializes(self):
        def kernel(pid, n):
            yield LOCK, 0
            yield COMPUTE, 50
            yield UNLOCK, 0

        result = _engine(2, lock_transfer_cycles=10).run(kernel)
        # The second holder starts only after the first releases.
        assert max(result.finish_times) > 100

    def test_lock_wait_accounting(self):
        def kernel(pid, n):
            yield LOCK, 0
            yield COMPUTE, 100
            yield UNLOCK, 0

        result = _engine(2).run(kernel)
        assert sum(result.lock_wait_cycles) > 0

    def test_unlock_without_hold_raises(self):
        def kernel(pid, n):
            yield UNLOCK, 0

        with pytest.raises(SimulationError):
            _engine(1).run(kernel)

    def test_fifo_handoff(self):
        order = []

        def kernel(pid, n):
            yield COMPUTE, pid  # staggered arrival: 0, 1, 2
            yield LOCK, 0
            order.append(pid)
            yield COMPUTE, 5
            yield UNLOCK, 0

        _engine(3).run(kernel)
        assert order == [0, 1, 2]


class TestDeadlockDetection:
    def test_unreleased_lock_deadlocks(self):
        def kernel(pid, n):
            yield LOCK, 0
            # proc 0 never unlocks; proc 1 waits forever.

        with pytest.raises(SimulationError):
            _engine(2).run(kernel)

    def test_mismatched_barrier_deadlocks(self):
        def kernel(pid, n):
            if pid == 0:
                yield BARRIER, 0
            else:
                yield COMPUTE, 1

        with pytest.raises(SimulationError):
            _engine(2).run(kernel)


class TestOpPairs:
    def test_pairs_compare_by_opcode_and_operand(self):
        """Ops are (opcode, operand) pairs: equal operands under different
        opcodes are different ops."""
        assert (READ, 5) == (READ, 5)
        assert (READ, 5) != (WRITE, 5)
        assert (LOCK, 1) != (UNLOCK, 1)
        assert (COMPUTE, 3) != (READ, 3)

    def test_opcodes_are_distinct(self):
        opcodes = (READ, WRITE, COMPUTE, LOCK, UNLOCK, BARRIER)
        assert len(set(opcodes)) == len(opcodes)


class TestOpFailures:
    @pytest.mark.parametrize("bad", [
        READ, (READ,), (READ, 0x40, 1), None,
    ], ids=["bare-opcode", "one-item", "three-items", "none"])
    def test_non_pair_names_processor_and_value(self, bad):
        def kernel(pid, n):
            yield COMPUTE, 1
            if pid == 1:
                yield bad

        with pytest.raises(SimulationError,
                           match=rf"proc 1 yielded {re.escape(repr(bad))}, "
                                 r"not an \(opcode, operand\) pair"):
            _engine(2).run(kernel)

    def test_unknown_opcode_names_processor_and_value(self):
        def kernel(pid, n):
            yield 99, 0x40

        with pytest.raises(SimulationError,
                           match=r"proc 0 yielded \(99, 64\): unknown opcode 99"):
            _engine(1).run(kernel)
