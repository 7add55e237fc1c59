"""Property-based robustness tests for the MP engine.

Random (but well-formed) kernels: every lock is released, every barrier
is reached by all processors — the engine must always terminate, be
deterministic, and respect basic accounting invariants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp.engine import MPEngine
from repro.mp.layout import NODE_REGION_BYTES
from repro.mp.ops import BARRIER, COMPUTE, LOCK, READ, UNLOCK, WRITE
from repro.mp.system import MPSystem, SystemKind

# One work item: (kind, value) decoded inside the kernel.
work_item = st.tuples(
    st.sampled_from(["read", "write", "compute", "locked"]),
    st.integers(0, 255),
)
round_plan = st.lists(work_item, min_size=0, max_size=8)
kernel_plan = st.lists(  # plans[round][proc] -> ops for that proc
    st.tuples(round_plan, round_plan),
    min_size=1,
    max_size=4,
)


def _make_kernel(plans):
    def kernel(pid, nprocs):
        for round_index, per_proc in enumerate(plans):
            for kind, value in per_proc[pid]:
                addr = (value % 2) * NODE_REGION_BYTES + (value * 64)
                if kind == "read":
                    yield READ, addr
                elif kind == "write":
                    yield WRITE, addr
                elif kind == "compute":
                    yield COMPUTE, value
                else:
                    yield LOCK, value % 4
                    yield WRITE, addr
                    yield UNLOCK, value % 4
            yield BARRIER, round_index

    return kernel


@settings(max_examples=25, deadline=None)
@given(plans=kernel_plan)
def test_engine_terminates_and_is_deterministic(plans):
    first = MPEngine(MPSystem(2, SystemKind.INTEGRATED)).run(_make_kernel(plans))
    second = MPEngine(MPSystem(2, SystemKind.INTEGRATED)).run(_make_kernel(plans))
    assert first.finish_times == second.finish_times
    assert first.ops_executed == second.ops_executed


@settings(max_examples=25, deadline=None)
@given(plans=kernel_plan)
def test_accounting_invariants(plans):
    system = MPSystem(2, SystemKind.INTEGRATED)
    result = MPEngine(system).run(_make_kernel(plans))
    # Every memory op recorded exactly once, split across nodes.
    assert system.stats.total == sum(
        node.total for node in system.node_stats
    )
    assert sum(system.stats.by_level.values()) == system.stats.total
    # Nobody finishes before doing its barrier waits.
    for proc in range(2):
        assert result.finish_times[proc] >= 0
        assert result.barrier_wait_cycles[proc] >= 0
        assert result.lock_wait_cycles[proc] >= 0


@settings(max_examples=15, deadline=None)
@given(plans=kernel_plan, kind=st.sampled_from(list(SystemKind)))
def test_all_system_kinds_complete(plans, kind):
    result = MPEngine(MPSystem(2, kind)).run(_make_kernel(plans))
    assert all(time >= 0 for time in result.finish_times)
