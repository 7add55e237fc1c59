import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.rng import make_rng
from repro.gspn.net import PetriNet
from repro.gspn.sim import GSPNSimulator


def _ring_net(places: int = 3, delay: float = 2.0) -> PetriNet:
    """A token circulating through deterministic transitions."""
    net = PetriNet("ring")
    for i in range(places):
        net.place(f"p{i}", tokens=1 if i == 0 else 0)
    for i in range(places):
        net.deterministic(
            f"t{i}", {f"p{i}": 1}, {f"p{(i + 1) % places}": 1}, delay=delay
        )
    return net


class TestDeterministicTiming:
    def test_ring_period(self):
        sim = GSPNSimulator(_ring_net(3, delay=2.0), make_rng(0))
        result = sim.run(stop_transition="t0", stop_count=10)
        # Each lap takes 3 transitions x 2 cycles; t0 fires at 2, 8, 14, ...
        assert result.firings["t0"] == 10
        assert result.time == pytest.approx(2.0 + 9 * 6.0)

    def test_single_shot_deadlocks(self):
        net = PetriNet("once")
        net.place("a", 1)
        net.place("b")
        net.deterministic("T", {"a": 1}, {"b": 1}, delay=5.0)
        result = GSPNSimulator(net, make_rng(0)).run(max_time=100)
        assert result.deadlocked
        assert result.time == 5.0
        assert result.firings["T"] == 1

    def test_max_time_stops_run(self):
        sim = GSPNSimulator(_ring_net(3, delay=1.0), make_rng(0))
        result = sim.run(max_time=10.0)
        assert result.time >= 10.0
        assert result.firings["t0"] <= 5

    def test_unknown_stop_transition_rejected(self):
        sim = GSPNSimulator(_ring_net(), make_rng(0))
        with pytest.raises(SimulationError):
            sim.run(stop_transition="nope", stop_count=1)

    def test_stop_count_zero_rejected(self):
        # The default stop_count=0 with a stop_transition used to return
        # immediately (0 firings >= 0 is already true) and masquerade as a
        # completed run; it is now a hard error.
        sim = GSPNSimulator(_ring_net(), make_rng(0))
        with pytest.raises(SimulationError, match="stop_count"):
            sim.run(stop_transition="t0")

    def test_stop_count_negative_rejected(self):
        sim = GSPNSimulator(_ring_net(), make_rng(0))
        with pytest.raises(SimulationError, match="stop_count"):
            sim.run(stop_transition="t0", stop_count=-3)


class TestImmediateSemantics:
    def test_immediates_fire_in_zero_time(self):
        net = PetriNet("imm")
        net.place("a", 1)
        net.place("b")
        net.place("c")
        net.immediate("T_ab", {"a": 1}, {"b": 1})
        net.deterministic("T_bc", {"b": 1}, {"c": 1}, delay=3.0)
        result = GSPNSimulator(net, make_rng(0)).run(max_time=100)
        assert result.time == 3.0

    def test_priority_beats_weight(self):
        net = PetriNet("prio")
        net.place("a", 1)
        net.place("low")
        net.place("high")
        net.immediate("T_low", {"a": 1}, {"low": 1}, weight=1000.0, priority=0)
        net.immediate("T_high", {"a": 1}, {"high": 1}, weight=0.001, priority=1)
        result = GSPNSimulator(net, make_rng(0)).run(max_time=1)
        assert result.firings.get("T_high") == 1
        assert "T_low" not in result.firings

    def test_weighted_conflict_resolution(self):
        net = PetriNet("weights")
        net.place("src", 1)
        net.place("gen")
        net.place("left")
        net.place("right")
        net.deterministic("T_gen", {"src": 1}, {"src": 1, "gen": 1}, delay=1.0)
        net.immediate("T_left", {"gen": 1}, {"left": 1}, weight=3.0)
        net.immediate("T_right", {"gen": 1}, {"right": 1}, weight=1.0)
        sim = GSPNSimulator(net, make_rng(7))
        result = sim.run(stop_transition="T_gen", stop_count=4000)
        ratio = result.firings["T_left"] / result.firings["T_right"]
        assert ratio == pytest.approx(3.0, rel=0.15)

    def test_immediate_livelock_detected(self):
        net = PetriNet("livelock")
        net.place("a", 1)
        net.place("b")
        net.immediate("T_ab", {"a": 1}, {"b": 1})
        net.immediate("T_ba", {"b": 1}, {"a": 1})
        with pytest.raises(SimulationError):
            GSPNSimulator(net, make_rng(0)).run(max_time=1)


class TestInhibitors:
    def test_inhibitor_blocks_transition(self):
        net = PetriNet("inh")
        net.place("a", 1)
        net.place("blocker", 1)
        net.place("out")
        net.deterministic("T", {"a": 1}, {"out": 1}, delay=1.0,
                          inhibitors={"blocker": 1})
        result = GSPNSimulator(net, make_rng(0)).run(max_time=10)
        assert "T" not in result.firings

    def test_inhibitor_releases_when_cleared(self):
        net = PetriNet("inh2")
        net.place("a", 1)
        net.place("blocker", 1)
        net.place("out")
        net.place("sink")
        net.deterministic("T_clear", {"blocker": 1}, {"sink": 1}, delay=5.0)
        net.deterministic("T", {"a": 1}, {"out": 1}, delay=1.0,
                          inhibitors={"blocker": 1})
        result = GSPNSimulator(net, make_rng(0)).run(max_time=100)
        assert result.firings["T"] == 1
        assert result.time == pytest.approx(6.0)  # restarts after the clear


class TestExponential:
    def test_mean_interfiring_time(self):
        net = PetriNet("exp")
        net.place("src", 1)
        net.place("count")
        net.exponential("T", {"src": 1}, {"src": 1, "count": 1}, rate=0.5)
        result = GSPNSimulator(net, make_rng(3)).run(
            stop_transition="T", stop_count=5000
        )
        mean = result.time / result.firings["T"]
        assert mean == pytest.approx(2.0, rel=0.1)

    def test_reproducible_with_seed(self):
        net = _ring_net(2, delay=1.0)
        a = GSPNSimulator(net, make_rng(5)).run(max_time=100)
        b = GSPNSimulator(net, make_rng(5)).run(max_time=100)
        assert a.firings == b.firings
        assert a.time == b.time


class TestStatsAndInvariants:
    def test_mean_marking_of_busy_server(self):
        # M/D/1-ish: always-on source, single server with utilization 0.5.
        net = PetriNet("util")
        net.place("src", 1)
        net.place("queue")
        net.place("server", 1)
        net.place("busy")
        net.place("done")
        net.exponential("T_arrive", {"src": 1}, {"src": 1, "queue": 1}, rate=0.1)
        net.immediate("T_seize", {"queue": 1, "server": 1}, {"busy": 1})
        net.deterministic("T_serve", {"busy": 1}, {"server": 1, "done": 1}, delay=5.0)
        net.immediate("T_sink", {"done": 1}, {})
        sim = GSPNSimulator(net, make_rng(11), track_places=("server",))
        result = sim.run(max_time=50_000)
        # Utilization = arrival rate x service time = 0.5.
        assert result.mean_marking["server"] == pytest.approx(0.5, abs=0.05)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_closed_conservative_net_preserves_tokens(self, seed):
        net = _ring_net(4, delay=1.5)
        sim = GSPNSimulator(net, make_rng(seed))
        sim.run(max_time=200)
        assert sum(sim.marking) == net.token_count()

    def test_throughput_helper(self):
        sim = GSPNSimulator(_ring_net(2, delay=1.0), make_rng(0))
        result = sim.run(stop_transition="t0", stop_count=50)
        assert result.throughput("t0") == pytest.approx(0.5, rel=0.05)

    def test_second_run_reports_window_not_lifetime_means(self):
        # Deterministic two-place cycle: A -(5)-> B -(15)-> A, tracking B.
        # T_ab fires at t=5 (token enters B), T_ba at t=20 (leaves B),
        # T_ab again at t=25.  First run stops after the first T_ab, so
        # its window [0, 5] never sees a token in B (mean 0).  The second
        # run's window [5, 25] has B occupied on [5, 20): exactly 15 of
        # 20 cycles, mean 0.75.  The historical bug divided the lifetime
        # area by the lifetime clock and would report 15/25 = 0.6 here.
        net = PetriNet("cycle")
        net.place("A", 1)
        net.place("B")
        net.deterministic("T_ab", {"A": 1}, {"B": 1}, delay=5.0)
        net.deterministic("T_ba", {"B": 1}, {"A": 1}, delay=15.0)
        sim = GSPNSimulator(net, make_rng(0), track_places=("B",))
        first = sim.run(stop_transition="T_ab", stop_count=1)
        assert first.time == pytest.approx(5.0)
        assert first.mean_marking["B"] == pytest.approx(0.0)
        second = sim.run(stop_transition="T_ab", stop_count=2)
        assert second.time == pytest.approx(25.0)
        assert second.mean_marking["B"] == pytest.approx(0.75)
        # Lifetime firing counts keep accumulating across calls.
        assert second.firings["T_ab"] == 2


class TestTypedFailures:
    """Unreachable targets, livelock and negative marking raise named errors."""

    def _single_shot(self) -> PetriNet:
        net = PetriNet("once")
        net.place("a", 1)
        net.place("b")
        net.deterministic("T", {"a": 1}, {"b": 1}, delay=5.0)
        return net

    def test_deadlock_before_target_raises(self):
        sim = GSPNSimulator(self._single_shot(), make_rng(0))
        with pytest.raises(SimulationError) as err:
            sim.run(stop_transition="T", stop_count=5)
        message = str(err.value)
        assert "net once" in message
        assert "T fired 1 of 5" in message
        assert "deadlocked at time 5" in message

    def test_target_that_never_fires_raises_not_keyerror(self):
        # Callers divide by firings[target]; a target that never fired
        # used to surface there as a bare KeyError.
        net = self._single_shot()
        net.place("c")
        net.deterministic("T_never", {"c": 1}, {}, delay=1.0)
        sim = GSPNSimulator(net, make_rng(0))
        with pytest.raises(SimulationError, match="T_never fired 0 of 3"):
            sim.run(stop_transition="T_never", stop_count=3)

    def test_event_budget_before_target_raises(self):
        sim = GSPNSimulator(_ring_net(3, delay=1.0), make_rng(0))
        with pytest.raises(SimulationError) as err:
            sim.run(stop_transition="t0", stop_count=100, max_events=10)
        message = str(err.value)
        assert "net ring" in message
        assert "t0 fired 4 of 100" in message
        assert "max_events=10" in message

    def test_target_met_on_last_budgeted_event_returns(self):
        sim = GSPNSimulator(_ring_net(3, delay=1.0), make_rng(0))
        result = sim.run(stop_transition="t0", stop_count=4, max_events=10)
        assert result.firings["t0"] == 4
        assert result.events == 10

    def test_max_time_before_target_returns(self):
        # max_time is a horizon the caller chose, not a failure.
        sim = GSPNSimulator(_ring_net(3, delay=1.0), make_rng(0))
        result = sim.run(max_time=5.0, stop_transition="t0", stop_count=100)
        assert result.firings["t0"] == 2
        assert not result.deadlocked

    def test_time_bounded_run_still_reports_deadlock(self):
        result = GSPNSimulator(self._single_shot(), make_rng(0)).run(
            max_time=100
        )
        assert result.deadlocked

    def test_livelock_names_net_and_transition(self):
        net = PetriNet("spin")
        net.place("a", 1)
        net.place("b")
        net.immediate("T_ab", {"a": 1}, {"b": 1})
        net.immediate("T_ba", {"b": 1}, {"a": 1})
        with pytest.raises(
            SimulationError,
            match=r"net spin: immediate-transition livelock: .*last fired: T_(ab|ba)",
        ):
            GSPNSimulator(net, make_rng(0)).run(max_time=1)

    def test_negative_marking_names_net_transition_and_place(self):
        net = self._single_shot()
        sim = GSPNSimulator(net, make_rng(0))
        sim.marking[0] = 0  # steal the token T's armed timer will consume
        with pytest.raises(
            SimulationError,
            match="net once: firing T left place a with negative marking -1",
        ):
            sim.run(max_time=100)
